package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var updatePlans = flag.Bool("update-plans", false, "rewrite testdata/all.{text,csv,json} from the current code")

// TestPaperArtifactsGolden pins every paper artifact byte for byte: -id all
// in text, CSV and JSON against testdata/all.<format>. Nothing in them
// reads the wall clock (Fig. 7, Table 6 and the granularity ablation count
// solver nodes), so a moved byte is a moved result. Regenerate the files
// only for a change meant to move an artifact, and list what moved in
// CHANGES.md:
//
//	go test ./cmd/experiments -run TestPaperArtifactsGolden -update-plans
func TestPaperArtifactsGolden(t *testing.T) {
	for _, format := range []string{"text", "csv", "json"} {
		var got bytes.Buffer
		if err := run(&got, "all", format); err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		path := filepath.Join("testdata", "all."+format)
		if *updatePlans {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s differs from %s at line %d", format, path, firstDiffLine(got.Bytes(), want))
		}
	}
}

// firstDiffLine returns the 1-based line at which a and b first differ.
func firstDiffLine(a, b []byte) int {
	n := min(len(a), len(b))
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return bytes.Count(a[:i], []byte("\n")) + 1
}

// TestUnknownFormatExits2 runs main in a child process: an unknown
// -format or -id is a usage error (exit 2, named on stderr with the valid
// values), not text output or a run failure.
func TestUnknownFormatExits2(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want []string // on stderr
	}{
		{"format", []string{"-id", "table5", "-format", "jsno"}, []string{`unknown format "jsno"`, "text, csv or json"}},
		{"id", []string{"-id", "nosuch"}, []string{`unknown artifact "nosuch"`, strings.Join(artifacts, ", ") + " or all"}},
	}
	if name := os.Getenv("EXPERIMENTS_MAIN"); name != "" {
		for _, tc := range cases {
			if tc.name == name {
				os.Args = append([]string{"experiments"}, tc.args...)
				main()
			}
		}
		return
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], "-test.run=^TestUnknownFormatExits2$")
			cmd.Env = append(os.Environ(), "EXPERIMENTS_MAIN="+tc.name)
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("%v: %v, want exit status 2; stdout %q", tc.args, err, stdout.String())
			}
			for _, w := range tc.want {
				if !strings.Contains(stderr.String(), w) {
					t.Errorf("%v: stderr %q lacks %q", tc.args, stderr.String(), w)
				}
			}
		})
	}
}
