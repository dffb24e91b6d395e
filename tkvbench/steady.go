package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the steadiness command reads.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runSteady runs every workload n times, with seeds 1..n and the run
// length of BENCHMARK.json, each in a child process of this binary, and
// prints each end-to-end metric's median, quartiles, spread and worst
// deviation against its bound.
func runSteady(n int) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("steady: run from the repository root: %w", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("steady: BENCHMARK.json: %w", err)
	}
	seconds := bf.RunSeconds
	self, err := os.Executable()
	if err != nil {
		return err
	}
	rev := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		rev = strings.TrimSpace(string(out))
	}
	fmt.Printf("steady: rev=%s go=%s nproc=%d gomaxprocs=%d runs=%d seconds=%d\n",
		rev, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), n, seconds)

	for _, w := range bf.Workloads {
		values := map[string][]float64{}
		var attempted, failed int64
		for seed := 1; seed <= n; seed++ {
			var stdout bytes.Buffer
			cmd := exec.Command(self, "--workload", w.Name, "--seed", fmt.Sprint(seed),
				"--seconds", fmt.Sprint(seconds), "--trace", "0")
			cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("steady: %s seed %d: %w", w.Name, seed, err)
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				return fmt.Errorf("steady: %s seed %d: %w", w.Name, seed, err)
			}
			if !res.Correct {
				return fmt.Errorf("steady: %s seed %d: outputs did not match the model", w.Name, seed)
			}
			attempted += res.Attempted
			failed += res.Failed
			for name, m := range res.Metrics {
				values[name] = append(values[name], m.Value)
			}
		}
		fmt.Printf("\n%s: attempted=%d failed=%d (share %.6g)\n", w.Name, attempted, failed, float64(failed)/float64(max(attempted, 1)))
		fmt.Printf("  %-20s %12s %12s %12s %8s %8s %8s  %s\n", "metric", "median", "q1", "q3", "spread", "worst", "bound", "verdict")
		for _, m := range bf.EndToEnd {
			vs := values[m.Name]
			if len(vs) == 0 {
				fmt.Printf("  %-20s missing\n", m.Name)
				continue
			}
			q1, med, q3 := quartiles(vs)
			spread := (q3 - q1) / med
			worst := 0.0
			for _, v := range vs {
				worst = math.Max(worst, math.Abs(v-med)/med)
			}
			verdict := "steady"
			switch {
			case spread > m.Bound:
				verdict = "WIDER THAN BOUND"
			case worst > m.Bound:
				verdict = "spread within bound, a run beyond it"
			case spread > m.Bound/3:
				verdict = "within bound, above a third"
			}
			fmt.Printf("  %-20s %12.5g %12.5g %12.5g %7.2f%% %7.2f%% %7.2f%%  %s\n",
				m.Name, med, q1, q3, spread*100, worst*100, m.Bound*100, verdict)
			fmt.Printf("  %-20s %.5g\n", "", vs)
		}
	}
	return nil
}

// quartiles returns the three cut points of xs as Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	m := len(s) + 1
	cut := func(i int) float64 {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}
