package benchsuite

import "testing"

// TestCasesRunOnce sets up every case and runs its op once, so a case
// whose world no longer builds, or whose op errors, fails here and not
// in the next benchmark run.
func TestCasesRunOnce(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range Cases() {
		if c.Name == "" {
			t.Fatal("case with an empty name")
		}
		if seen[c.Name] {
			t.Fatalf("duplicate case %q", c.Name)
		}
		seen[c.Name] = true
		t.Run(c.Name, func(t *testing.T) {
			op, err := c.Setup()
			if err != nil {
				t.Fatal(err)
			}
			if err := op(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
