// Command valency computes the Section 5 proof machinery for a concrete
// protocol configuration: the valence of the initial state (or of any state
// named by a choice-path prefix) and the critical state whose every enabled
// step is a decision step.
//
// Examples:
//
//	valency -proto figure1 -n 2                  # the classic critical initial state
//	valency -proto figure3 -f 1 -t 1 -n 2        # Figure 3's critical state under faults
//	valency -proto figure1 -n 2 -prefix 0        # valence after p0's first step
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/run"
	"repro/internal/valency"
)

func main() {
	var (
		protoName = flag.String("proto", "figure1", "protocol: figure1 | figure2 | figure3")
		f         = flag.Int("f", 1, "fault parameter f")
		t         = flag.Int("t", 1, "per-object fault bound t")
		n         = flag.Int("n", 2, "number of processes")
		faulty    = flag.Int("faulty", -1, "number of faulty objects (default: all for figure3/figure1, f for figure2; 0 disables faults)")
		prefixArg = flag.String("prefix", "", "comma-separated choice path identifying a state (default: initial state)")
		critical  = flag.Bool("critical", true, "also search for a critical state")
	)
	flag.Parse()

	var proto core.Protocol
	switch strings.ToLower(*protoName) {
	case "figure1", "single":
		proto = core.SingleCAS{}
	case "figure2", "fplusone":
		proto = core.NewFPlusOne(*f)
	case "figure3", "staged":
		proto = core.NewStaged(*f, *t)
	default:
		fail(fmt.Errorf("unknown protocol %q", *protoName))
	}

	numFaulty := *faulty
	if numFaulty < 0 {
		switch strings.ToLower(*protoName) {
		case "figure2", "fplusone":
			numFaulty = *f
		default:
			numFaulty = proto.Objects()
		}
	}
	ids := make([]int, numFaulty)
	for i := range ids {
		ids[i] = i
	}

	inputs := make([]int64, *n)
	for i := range inputs {
		inputs[i] = int64(10 + i)
	}

	s := run.NewSettings(run.WithProtocol(proto), run.WithInputs(inputs...), run.WithFaultyObjects(ids, *t))

	var prefix []int
	if *prefixArg != "" {
		for _, part := range strings.Split(*prefixArg, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				fail(fmt.Errorf("bad prefix element %q", part))
			}
			prefix = append(prefix, v)
		}
	}

	v, err := valency.Compute(s, prefix)
	if err != nil {
		fail(err)
	}
	fmt.Printf("protocol : %s, n=%d, faulty=%v, t=%d\n", proto.Name(), *n, ids, *t)
	fmt.Printf("valence  : %s\n", v)

	if !*critical || len(prefix) > 0 {
		return
	}
	if v.Violated {
		fmt.Println("critical : not searched (violations reachable)")
		return
	}
	if !v.Multivalent() {
		fmt.Println("critical : not searched (initial state is univalent)")
		return
	}
	crit, err := valency.FindCritical(s)
	if err != nil {
		fail(err)
	}
	fmt.Printf("critical : state %v — every enabled step is a decision step\n", crit.Prefix)
	for c, ch := range crit.Children {
		fmt.Printf("           step alternative %d → %v-valent (%d extensions)\n",
			c, ch.Values, ch.Executions)
	}
}

// fail prints err on one line and exits 2. The valency package's own errors
// already start with the command's name.
func fail(err error) {
	fmt.Fprintf(os.Stderr, "valency: %s\n", strings.TrimPrefix(err.Error(), "valency: "))
	os.Exit(2)
}
