//go:build !race

package harness

import "testing"

// goldenFull is the output of `experiments -seed 1`, the run EXPERIMENTS.md
// quotes. Regenerate it with
//
//	go run ./cmd/experiments -seed 1 > experiments_output.txt
const goldenFull = "../../experiments_output.txt"

// TestExperimentsGoldenFull is TestExperimentsGolden for the full sweep:
// RunAll at seed 1, at one and at two workers, must equal the committed
// output outside what maskE8 blanks. It takes seconds, and over a minute
// under the race detector, so race builds leave it out.
func TestExperimentsGoldenFull(t *testing.T) {
	checkGolden(t, goldenFull, Options{Seed: 1})
}
