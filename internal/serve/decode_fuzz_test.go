package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// FuzzDecodeBody feeds arbitrary bytes to the create, step and config
// request decoders through decodeBody, as their handlers do. A decode
// never panics, and it either accepts the body or refuses it with 400,
// or with 413 past the 64 KiB cap only. An accepted body's value
// re-marshals to a body that decodes to the same value — or, when the
// re-marshaled body outgrows the cap (escapes can lengthen strings), is
// refused with 413.
func FuzzDecodeBody(f *testing.F) {
	for _, body := range []string{
		// The documented example bodies (docs/API.md).
		`{"name":"office","devices":64,"aps":2,"soft_combining":true}`,
		`{"rounds":100}`,
		`{"soft_combining":true,"adversity":{"doppler_hz":4,"correlation":0.9}}`,
		// Empty: one round for step, malformed for create and config.
		``,
		// An unknown field, trailing data, a body over the cap.
		`{"devices":2,"sf":6,"soft_combinig":true}`,
		`{"rounds":1}{"rounds":7}`,
		`{"name":"` + strings.Repeat("x", maxBodyBytes) + `"}`,
	} {
		f.Add([]byte(body))
	}
	s := &Server{}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkBodyRoundTrip[DeploymentConfig](t, s, "deployment config", body, false)
		checkBodyRoundTrip[StepRequest](t, s, "step request", body, true)
		checkBodyRoundTrip[ConfigRequest](t, s, "config request", body, false)
	})
}

// decodeBytes runs decodeBody over body into v and returns whether it
// accepted the body and the status it answered otherwise.
func decodeBytes(s *Server, what string, body []byte, v any, allowEmpty bool) (bool, int) {
	w := httptest.NewRecorder()
	r := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body))
	ok := s.decodeBody(w, r, what, v, allowEmpty)
	return ok, w.Code
}

// checkBodyRoundTrip checks FuzzDecodeBody's properties for one request
// type T.
func checkBodyRoundTrip[T any](t *testing.T, s *Server, what string, body []byte, allowEmpty bool) {
	var v T
	ok, code := decodeBytes(s, what, body, &v, allowEmpty)
	if !ok {
		if code != http.StatusBadRequest && (code != http.StatusRequestEntityTooLarge || len(body) <= maxBodyBytes) {
			t.Fatalf("%s: a %d-byte body refused with status %d", what, len(body), code)
		}
		return
	}
	out, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("%s: accepted value %+v does not marshal: %v", what, v, err)
	}
	var again T
	ok, code = decodeBytes(s, what, out, &again, allowEmpty)
	if len(out) > maxBodyBytes {
		if ok || code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: a re-marshaled body of %d bytes: accepted %v, status %d; want 413", what, len(out), ok, code)
		}
		return
	}
	if !ok {
		t.Fatalf("%s: re-marshaled body %s refused with status %d", what, out, code)
	}
	if !reflect.DeepEqual(again, v) {
		t.Fatalf("%s: %s re-decodes to %+v, want %+v", what, out, again, v)
	}
}
