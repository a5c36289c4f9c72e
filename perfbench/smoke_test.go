package main

import (
	"bytes"
	"encoding/json"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmoke runs every workload briefly, untraced and traced, and checks
// that each run is correct and emits every named metric with its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	root := t.TempDir()
	bin := filepath.Join(root, "mdesd")
	if out, err := exec.Command("go", "build", "-o", bin, "mdes/cmd/mdesd").CombinedOutput(); err != nil {
		t.Fatalf("build mdesd: %v\n%s", err, out)
	}
	for _, w := range workloadNames() {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", w, "--seed", "1", "--seconds", "1", "--trace", trace,
					"--mdesd", bin, "--root", root}
				code := run(args, &stdout, &stderr)
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res resultLine
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("exit %d, last line not a result: %v\nstdout:\n%s\nstderr:\n%s", code, err, stdout.String(), stderr.String())
				}
				if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("exit %d, result %+v\nstdout:\n%s\nstderr:\n%s", code, res, stdout.String(), stderr.String())
				}
				specs := endToEnd
				if trace == "1" {
					specs = perLayer
				}
				if len(res.Metrics) != len(specs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(specs))
				}
				for _, s := range specs {
					m, ok := res.Metrics[s.name]
					if !ok || m.Unit != s.unit {
						t.Errorf("metric %s: got %+v, want unit %s", s.name, m, s.unit)
					}
				}
			})
		}
	}
}
