package harness

import (
	"bytes"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
)

// goldenQuick is the output of `experiments -quick -seed 1`. Regenerate it
// with
//
//	go run ./cmd/experiments -quick -seed 1 > internal/harness/testdata/experiments_quick_seed1.txt
const goldenQuick = "testdata/experiments_quick_seed1.txt"

// TestExperimentsGolden regenerates the quick experiments output through
// RunAll at one and at two workers and requires both to equal the golden
// file. Only E8's timings and the CAS counts of its atomics rows, which
// depend on how real goroutines interleave, are masked (maskE8); every other
// cell, sampled or enumerated, must match byte for byte.
func TestExperimentsGolden(t *testing.T) {
	checkGolden(t, goldenQuick, Options{Quick: true, Seed: 1})
}

// checkGolden runs RunAll with opts at one and at two workers and requires
// both outputs to equal the golden file outside what maskE8 blanks.
func checkGolden(t *testing.T, golden string, opts Options) {
	t.Helper()
	if testing.Short() {
		t.Skip("full sweep")
	}
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	want := maskE8(string(data))
	for _, workers := range []int{1, 2} {
		opts.Workers = workers
		var buf bytes.Buffer
		if err := RunAll(&buf, opts); err != nil {
			t.Fatalf("workers=%d: RunAll: %v\n%s", workers, err, buf.String())
		}
		if got := maskE8(buf.String()); got != want {
			t.Errorf("workers=%d: output differs from %s:\n%s", workers, golden, lineDiff(want, got))
		}
	}
}

var number = regexp.MustCompile(`[0-9]+(\.[0-9]+)?`)

// maskE8 blanks what E8 measures on real goroutines: every row's ns/decide
// cell, the atomics rows' CAS/decide cells and the numbers of the summary
// line. Its table rows are re-joined from trimmed cells, since a masked
// cell's width sets its column's padding.
func maskE8(out string) string {
	lines := strings.Split(out, "\n")
	inE8 := false
	for i, line := range lines {
		switch {
		case strings.HasPrefix(line, "=== "):
			inE8 = strings.HasPrefix(line, "=== E8:")
		case !inE8:
		case strings.HasPrefix(line, "cost ordering holds:"):
			lines[i] = number.ReplaceAllString(line, "#")
		case strings.HasPrefix(line, "|"):
			cells := strings.Split(strings.Trim(line, "|"), "|")
			for j := range cells {
				cells[j] = strings.TrimSpace(cells[j])
			}
			// protocol | objects | procs | substrate | fault cfg | ns/decide | CAS/decide
			if len(cells) == 7 && cells[5] != "ns/decide" && !strings.HasPrefix(cells[5], "-") {
				cells[5] = "#"
				if cells[3] == "atomics" {
					cells[6] = "#"
				}
			}
			for j := range cells {
				if strings.Trim(cells[j], "-") == "" {
					cells[j] = "-"
				}
			}
			lines[i] = "|" + strings.Join(cells, "|") + "|"
		}
	}
	return strings.Join(lines, "\n")
}

// lineDiff lists the lines where two outputs differ.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	for i := 0; i < max(len(w), len(g)); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			fmt.Fprintf(&b, "line %d:\n  want %s\n  got  %s\n", i+1, wl, gl)
		}
	}
	return b.String()
}
