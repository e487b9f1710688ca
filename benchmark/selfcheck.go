package main

import (
	"fmt"
	"io"
	"math"
)

// rounding is how far two "bit-identical" figures may differ: the same
// integer counts summed over another number of passes divide to floats an
// ulp apart.
const rounding = 1e-12

// selfcheck runs the suite twice untraced and once traced in one invocation,
// on the same inputs, prints both sets of end-to-end metrics with their
// difference and bound, and fails if the two runs disagree by more than a
// metric's bound, if a simulated figure that is deterministic (the serial
// paper preset) is not bit-identical, or if any run was not correct: wrong
// replies, a repeated exploration that cost something else, or an
// instrumented stack that is not the public stack.
func selfcheck(e *env, specs []workloadSpec, w io.Writer) (int, error) {
	first, err := runSuite(e, specs, false, io.Discard)
	if err != nil {
		return 1, err
	}
	second, err := runSuite(e, specs, false, io.Discard)
	if err != nil {
		return 1, err
	}
	traced, err := runSuite(e, specs, true, io.Discard)
	if err != nil {
		return 1, err
	}
	failures := 0
	line := func(workload, name string, a, b, limit float64) {
		diff := 0.0
		if a != b {
			diff = math.Abs(a-b) / ((math.Abs(a) + math.Abs(b)) / 2)
		}
		verdict := "ok"
		if diff > limit+rounding {
			verdict = "FAIL"
			failures++
		}
		fmt.Fprintf(w, "%s %s first %v second %v differ %.4f bound %.4f %s\n", workload, name, a, b, diff, limit, verdict)
	}
	for i, spec := range specs {
		a, b := first[i], second[i]
		for _, m := range endToEnd {
			limit := m.bound
			if m.isExactOn(spec.name) {
				limit = 0
			}
			line(spec.name, m.name, a.values[m.name], b.values[m.name], limit)
		}
		for _, m := range notGated {
			if m.isExactOn(spec.name) {
				line(spec.name, m.name, a.extra[m.name], b.extra[m.name], 0)
			}
		}
		for _, r := range []*result{a, b, traced[i]} {
			if !r.correct() {
				failures++
				fmt.Fprintf(w, "%s not correct: attempted %d failed %d %v\n", spec.name, r.attempted, r.failed, r.problems)
			}
		}
		for _, k := range []string{"stacks_agree_exactly", "stacks_sim_diff_frac"} {
			if v, ok := traced[i].info[k]; ok {
				fmt.Fprintf(w, "# %s %s %v\n", spec.name, k, v)
			}
		}
	}
	if failures > 0 {
		fmt.Fprintf(w, "selfcheck: %d failures\n", failures)
		return 1, nil
	}
	fmt.Fprintln(w, "selfcheck: ok")
	return 0, nil
}
