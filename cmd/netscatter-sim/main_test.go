package main

import (
	"strings"
	"testing"
)

// TestValidateFlags pins the CLI's count-flag validation: zero or
// negative -devices/-rounds/-payload/-skip/-aps are rejected up front
// with a message naming the offending flag and its value.
func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name                                string
		devices, rounds, payload, skip, aps int
		wantErr                             string
	}{
		{"defaults ok", 64, 3, 5, 2, 1, ""},
		{"multi-AP ok", 128, 1, 1, 1, 8, ""},
		{"zero devices", 0, 3, 5, 2, 1, "-devices"},
		{"negative devices", -2, 3, 5, 2, 1, "-devices"},
		{"zero rounds", 64, 0, 5, 2, 1, "-rounds"},
		{"zero payload", 64, 3, 0, 2, 1, "-payload"},
		{"zero skip", 64, 3, 5, 0, 1, "-skip"},
		{"negative skip", 64, 3, 5, -1, 1, "-skip"},
		{"zero aps", 64, 3, 5, 2, 0, "-aps"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateFlags(tc.devices, tc.rounds, tc.payload, tc.skip, tc.aps)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("valid flags rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatal("invalid flags accepted")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not name %s", err, tc.wantErr)
			}
		})
	}
}
