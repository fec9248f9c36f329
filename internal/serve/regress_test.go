package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"testing"
)

// TestStepRoundsOverflow pins the backlog bound against integer
// overflow: a huge rounds value used to wrap t.pending+req.Rounds
// negative, slip past MaxPending, and leave the tenant with an absurd
// pending count. It must be throttled like any other over-budget
// request, with the backlog untouched.
func TestStepRoundsOverflow(t *testing.T) {
	_, c := newTestServer(t, Config{MaxPending: 8})
	ctx := context.Background()
	id, err := c.CreateDeployment(ctx, smallCfg(1))
	if err != nil {
		t.Fatalf("create: %v", err)
	}

	for _, rounds := range []int{1 << 62, 1<<63 - 1, 9} {
		if _, err := c.Step(ctx, id, rounds); !errors.Is(err, ErrThrottled) {
			t.Errorf("step rounds=%d: got %v, want ErrThrottled", rounds, err)
		}
	}
	info, err := c.Detail(ctx, id)
	if err != nil {
		t.Fatalf("detail: %v", err)
	}
	if info.Pending != 0 {
		t.Errorf("pending = %d after rejected oversize steps, want 0", info.Pending)
	}

	// The bound itself still admits a full backlog.
	if _, err := c.Step(ctx, id, 8); err != nil {
		t.Errorf("step rounds=MaxPending: %v", err)
	}
}

// TestLastErrClearsOnRecovery pins the sticky-error fix: once a round
// completes, a previously recorded error must stop appearing in
// listings — a recovered tenant should not report its last incident
// forever.
func TestLastErrClearsOnRecovery(t *testing.T) {
	s, c := newTestServer(t, Config{})
	ctx := context.Background()
	id, err := c.CreateDeployment(ctx, smallCfg(1))
	if err != nil {
		t.Fatalf("create: %v", err)
	}

	tn := s.reg.get(id)
	tn.mu.Lock()
	tn.lastErr = "injected: round failed"
	tn.mu.Unlock()

	info, err := c.Detail(ctx, id)
	if err != nil {
		t.Fatalf("detail: %v", err)
	}
	if info.LastError == "" {
		t.Fatal("injected last_error not visible before recovery")
	}

	if _, err := c.Step(ctx, id, 1); err != nil {
		t.Fatalf("step: %v", err)
	}
	waitRounds(t, c, id, 1)

	info, err = c.Detail(ctx, id)
	if err != nil {
		t.Fatalf("detail: %v", err)
	}
	if info.LastError != "" {
		t.Errorf("last_error = %q after a successful round, want cleared", info.LastError)
	}
}

// TestRequestBodyBounds pins the request-body rules of the create, step
// and config endpoints. A body over 64 KiB is refused with 413 and a
// JSON error body, however it is padded. An unknown field, such as a
// misspelt option, is refused with 400 and changes nothing: it no
// longer silently creates a tenant without the option. An empty step
// body still means one round.
func TestRequestBodyBounds(t *testing.T) {
	s, c := newTestServer(t, Config{})
	ctx := context.Background()
	id, err := c.CreateDeployment(ctx, smallCfg(1))
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	create := "/v1/deployments"
	step := fmt.Sprintf("/v1/deployments/%d/step", id)
	config := fmt.Sprintf("/v1/deployments/%d/config", id)
	post := func(path, body string) (int, string) {
		t.Helper()
		resp, err := c.HTTPClient.Post(c.BaseURL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		var e errorResponse
		if resp.StatusCode >= 400 {
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
				t.Fatalf("POST %s: status %d without a JSON error body (%v)", path, resp.StatusCode, err)
			}
		}
		return resp.StatusCode, e.Error
	}
	pad := strings.Repeat(" ", maxBodyBytes)
	for _, tc := range []struct {
		name, path, body string
		want             int
	}{
		{"create, long name", create, `{"devices":2,"sf":6,"name":"` + strings.Repeat("x", maxBodyBytes) + `"}`, http.StatusRequestEntityTooLarge},
		{"create, padded", create, `{"devices":2,"sf":6}` + pad, http.StatusRequestEntityTooLarge},
		{"step, padded", step, `{"rounds":1}` + pad, http.StatusRequestEntityTooLarge},
		{"config, padded", config, `{"soft_combining":true}` + pad, http.StatusRequestEntityTooLarge},
		{"create, misspelt option", create, `{"devices":2,"sf":6,"soft_combinig":true}`, http.StatusBadRequest},
		{"step, unknown field", step, `{"rounds":1,"round":5}`, http.StatusBadRequest},
		{"config, misspelt option", config, `{"soft_combinig":true}`, http.StatusBadRequest},
		{"step, two values", step, `{"rounds":1}{"rounds":7}`, http.StatusBadRequest},
		{"create, empty", create, ``, http.StatusBadRequest},
	} {
		if code, msg := post(tc.path, tc.body); code != tc.want {
			t.Errorf("%s: status %d (%s), want %d", tc.name, code, msg, tc.want)
		}
	}
	if n := s.reg.count(); n != 1 {
		t.Errorf("%d deployments after refused creates, want 1", n)
	}
	info, err := c.Detail(ctx, id)
	if err != nil {
		t.Fatalf("detail: %v", err)
	}
	if info.Pending != 0 || info.Rounds != 0 || info.Soft {
		t.Errorf("refused requests changed the tenant: pending %d, rounds %d, soft %v", info.Pending, info.Rounds, info.Soft)
	}

	if code, msg := post(step, ""); code != http.StatusAccepted {
		t.Fatalf("empty step body: status %d (%s), want %d", code, msg, http.StatusAccepted)
	}
	waitRounds(t, c, id, 1)
	if code, msg := post(create, `{"devices":2,"sf":6,"soft_combining":true}`+"\n"); code != http.StatusCreated {
		t.Fatalf("valid create with a trailing newline: status %d (%s), want %d", code, msg, http.StatusCreated)
	}
}
