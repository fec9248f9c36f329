package serve

// Client is the typed Go client for the service, shared by
// cmd/netscatter-load and the soak test so they exercise exactly the
// HTTP surface a real integration would.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"
)

// ErrThrottled reports a 429: the per-tenant round backlog or the
// deployment limit is full. Callers back off and retry.
var ErrThrottled = errors.New("serve: throttled (backlog or deployment limit reached)")

// Client talks to one netscatter-serve instance.
type Client struct {
	// BaseURL is the service root, e.g. "http://127.0.0.1:8437".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// do runs one request; out (when non-nil) receives the decoded JSON
// body of a 2xx response.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests {
		io.Copy(io.Discard, resp.Body)
		return ErrThrottled
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		var e errorResponse
		if json.NewDecoder(resp.Body).Decode(&e) == nil && e.Error != "" {
			return fmt.Errorf("serve: %s %s: %s (HTTP %d)", method, path, e.Error, resp.StatusCode)
		}
		return fmt.Errorf("serve: %s %s: HTTP %d", method, path, resp.StatusCode)
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// CreateDeployment creates a tenant and returns its id.
func (c *Client) CreateDeployment(ctx context.Context, cfg DeploymentConfig) (int64, error) {
	var resp CreateResponse
	if err := c.do(ctx, http.MethodPost, "/v1/deployments", cfg, &resp); err != nil {
		return 0, err
	}
	return resp.ID, nil
}

// DeleteDeployment tears a tenant down.
func (c *Client) DeleteDeployment(ctx context.Context, id int64) error {
	return c.do(ctx, http.MethodDelete, fmt.Sprintf("/v1/deployments/%d", id), nil, nil)
}

// Step enqueues rounds; ErrThrottled when the backlog is full.
func (c *Client) Step(ctx context.Context, id int64, rounds int) (StepResponse, error) {
	var out StepResponse
	err := c.do(ctx, http.MethodPost, fmt.Sprintf("/v1/deployments/%d/step", id),
		StepRequest{Rounds: rounds}, &out)
	return out, err
}

// Stats snapshots a tenant's live statistics.
func (c *Client) Stats(ctx context.Context, id int64) (StatsResponse, error) {
	var out StatsResponse
	err := c.do(ctx, http.MethodGet, fmt.Sprintf("/v1/deployments/%d/stats", id), nil, &out)
	return out, err
}

// StepAll enqueues exactly rounds rounds, splitting the request into
// backlog-sized chunks and backing off on 429s until everything is
// accepted (rounds may exceed the service's per-tenant backlog bound).
// Returns as soon as the last chunk is accepted; the rounds still
// drain asynchronously — pair with WaitRounds for completion.
func (c *Client) StepAll(ctx context.Context, id int64, rounds int, poll time.Duration) error {
	if poll <= 0 {
		poll = 20 * time.Millisecond
	}
	for queued := 0; queued < rounds; {
		chunk := min(rounds-queued, stepChunk)
		_, err := c.Step(ctx, id, chunk)
		switch {
		case errors.Is(err, ErrThrottled):
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(poll):
			}
		case err != nil:
			return err
		default:
			queued += chunk
		}
	}
	return nil
}

// stepChunk bounds one StepAll request so a large campaign cell's
// round count never trips the service's default backlog limit in a
// single request.
const stepChunk = 256

// WaitRounds polls stats until the deployment has accumulated at least
// n rounds, and returns that snapshot.
func (c *Client) WaitRounds(ctx context.Context, id int64, n int, poll time.Duration) (StatsResponse, error) {
	if poll <= 0 {
		poll = 20 * time.Millisecond
	}
	for {
		st, err := c.Stats(ctx, id)
		if err != nil {
			return st, err
		}
		if st.Stats.Rounds >= n {
			return st, nil
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-time.After(poll):
		}
	}
}

// Metrics snapshots the process-wide counters.
func (c *Client) Metrics(ctx context.Context) (map[string]int64, error) {
	var out map[string]int64
	err := c.do(ctx, http.MethodGet, "/metrics", nil, &out)
	return out, err
}
