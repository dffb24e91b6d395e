package main

import (
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/shrink-tm/shrink/internal/stm"
	"github.com/shrink-tm/shrink/internal/tkv"
)

func TestValueRoundTrip(t *testing.T) {
	v := value(42, 7)
	if len(v) != valueLen {
		t.Fatalf("len %d, want %d", len(v), valueLen)
	}
	if ver, err := parseValue(v, 42); err != nil || ver != 7 {
		t.Fatalf("parseValue = %d, %v; want 7, nil", ver, err)
	}
	if _, err := parseValue(v, 43); err == nil {
		t.Fatal("a value of key 42 was accepted for key 43")
	}
	torn := v[:valueLen-1] + "#"
	if _, err := parseValue(torn, 42); err == nil {
		t.Fatal("a torn value was accepted")
	}
}

// The kv-large-read checks fail on a lost write, on a version nobody
// issued, and in the final sweep on a value older than the acknowledged one.
func TestLargeReadChecksCatchLostWrite(t *testing.T) {
	m := newLargeRead(4)
	m.issued[0].Store(2)
	m.acked[0] = 2
	m.issued[1].Store(1)
	m.acked[1] = 1

	if err := m.checkRead(0, 0, value(0, 2), true); err != nil {
		t.Fatalf("current own value rejected: %v", err)
	}
	if err := m.checkRead(0, 0, value(0, 1), true); err == nil || !strings.Contains(err.Error(), "lost write") {
		t.Fatalf("owner read an overwritten version: err = %v, want a lost write", err)
	}
	if err := m.checkRead(0, 1, value(1, 0), true); err != nil {
		t.Fatalf("another client's key may lag its owner: %v", err)
	}
	if err := m.checkRead(0, 1, value(1, 2), true); err == nil {
		t.Fatal("a version newer than any issued was accepted")
	}
	if err := m.checkRead(0, 1, value(0, 1), true); err == nil {
		t.Fatal("a value of another key was accepted")
	}
	if err := m.checkRead(0, 2, "", false); err == nil {
		t.Fatal("a missing key was accepted")
	}

	keys := []uint64{0, 1, 2, 3}
	good := []tkv.OpResult{{Found: true, Value: value(0, 2)}, {Found: true, Value: value(1, 1)},
		{Found: true, Value: value(2, 0)}, {Found: true, Value: value(3, 0)}}
	if err := m.checkSweep(keys, good); err != nil {
		t.Fatalf("sweep of the model's values rejected: %v", err)
	}
	lost := append([]tkv.OpResult(nil), good...)
	lost[0].Value = value(0, 1)
	if err := m.checkSweep(keys, lost); err == nil {
		t.Fatal("sweep accepted a lost write")
	}
	// A put that failed leaves issued ahead of acked: either version is
	// a legal outcome.
	m.issued[2].Store(1)
	half := append([]tkv.OpResult(nil), good...)
	half[2].Value = value(2, 1)
	if err := m.checkSweep(keys, half); err != nil {
		t.Fatalf("sweep rejected the issued version of a failed put: %v", err)
	}
}

// A group read that sees one side of a transfer breaks the group's sum.
func TestDurableGroupSumCatchesTornBatch(t *testing.T) {
	keys := []uint64{1, 2, 3, 4}
	res := func(vals ...int) []tkv.OpResult {
		out := make([]tkv.OpResult, len(vals))
		for i, v := range vals {
			out[i] = tkv.OpResult{Found: true, Value: strconv.Itoa(v)}
		}
		return out
	}
	want := int64(4 * durGroupInit)
	if err := checkGroupSum(keys, res(995, 1005, 1000, 1000), want); err != nil {
		t.Fatalf("a whole transfer was rejected: %v", err)
	}
	if err := checkGroupSum(keys, res(995, 1000, 1000, 1000), want); err == nil {
		t.Fatal("a torn transfer was accepted")
	}
}

func TestDurableCASOnOwnKeyMustSucceed(t *testing.T) {
	m := newDurable(1, func(k uint64) int { return int(k % 8) })
	c := &kvClient{id: 0}
	r := &request{kind: kCAS, key: m.regs[0][3], idx: 3, ver: 1}
	if err := m.check(c, r, &response{found: false}); err == nil {
		t.Fatal("a failed CAS on the client's own key was accepted")
	}
	if err := m.check(c, r, &response{found: true}); err != nil || m.regVer[0][3] != 1 {
		t.Fatalf("CAS: err = %v, version %d; want nil, 1", err, m.regVer[0][3])
	}
}

// After reopen every counter must equal its initial value plus the
// acknowledged deltas, and every register its last acknowledged version.
func TestDurableRecoveryCatchesLostWrite(t *testing.T) {
	m := newDurable(1, func(k uint64) int { return int(k % 8) })
	m.groupVal[0][0].Add(-3)
	m.groupVal[0][1].Add(3)
	m.regVer[1][0] = 5
	m.adderVal[0][2] = 17

	stored := map[uint64]string{}
	for g := range m.groups {
		for i, k := range m.groups[g] {
			stored[k] = strconv.FormatInt(m.groupVal[g][i].Load(), 10)
		}
	}
	for c := 0; c < clients; c++ {
		for i, k := range m.regs[c] {
			stored[k] = value(k, m.regVer[c][i])
		}
		for i, k := range m.adders[c] {
			stored[k] = strconv.FormatInt(m.adderVal[c][i], 10)
		}
	}
	for _, k := range m.filler {
		stored[k] = value(k, 0)
	}
	get := func(k uint64) (string, bool, error) { v, ok := stored[k]; return v, ok, nil }
	if err := m.checkRecovered(get); err != nil {
		t.Fatalf("the model's own state was rejected: %v", err)
	}

	for _, tc := range []struct {
		name string
		key  uint64
		val  string
	}{
		{"lost transfer delta", m.groups[0][1], strconv.Itoa(durGroupInit)},
		{"lost register write", m.regs[1][0], value(m.regs[1][0], 4)},
		{"lost add", m.adders[0][2], "8"},
		{"lost set-up write", m.filler[7], value(m.filler[7], 1)},
	} {
		saved := stored[tc.key]
		stored[tc.key] = tc.val
		if err := m.checkRecovered(get); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
		delete(stored, tc.key)
		if err := m.checkRecovered(get); err == nil {
			t.Errorf("%s: a missing key was accepted", tc.name)
		}
		stored[tc.key] = saved
	}
}

type brokenTree struct{ treeView }

func (brokenTree) CheckInvariants(stm.Tx) (int, error) {
	return 0, errBrokenTree
}

type testErr string

func (e testErr) Error() string { return string(e) }

const errBrokenTree = testErr("red node with a red child")

// The tree check fails on a violated invariant and on a size the model
// does not account for.
func TestTreeCheckCatchesBrokenTree(t *testing.T) {
	s, err := setUpRBTree(1)
	if err != nil {
		t.Fatal(err)
	}
	th := s.threads[0]
	if err := checkTree(th, s.tree, s.size); err != nil {
		t.Fatalf("a fresh tree was rejected: %v", err)
	}
	if err := checkTree(th, brokenTree{s.tree}, s.size); err == nil {
		t.Fatal("a tree with a broken invariant was accepted")
	}
	// An insert the model did not count.
	var inserted bool
	for k := int64(0); !inserted; k++ {
		if err := th.Atomically(func(tx stm.Tx) (err error) {
			inserted, err = s.tree.Insert(tx, k, k)
			return
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := checkTree(th, s.tree, s.size); err == nil {
		t.Fatal("a tree one key larger than the model was accepted")
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{10, 20, 30, 40, 50}, 15, 30, 45},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-9 || math.Abs(q2-tc.q2) > 1e-9 || math.Abs(q3-tc.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

// A window's samples land in the slice their end time falls in, samples
// past the last edge in the last slice, and the p99 is the median of the
// slices' p99s: one slice of slow samples does not move it, while the p99
// over the whole window follows the slow slice.
func TestSlicedP99IgnoresOneSlowSlice(t *testing.T) {
	const seconds = 1
	start := time.Unix(0, 0)
	ls := []*latencies{newLatencies(1000, seconds), newLatencies(1000, seconds)}
	n := ls[0].slices
	for k := 0; k < n; k++ {
		d := 10 * time.Microsecond
		if k == 3 {
			d = 1000 * time.Microsecond
		}
		end := start.Add(time.Duration(k)*sliceLen + sliceLen/2)
		for i := 0; i < 50; i++ {
			for _, l := range ls {
				l.add(classRead, start, end.Add(-d), end)
			}
		}
	}
	late := start.Add(time.Duration(n+2) * sliceLen)
	ls[1].add(classWrite, start, late.Add(-time.Microsecond), late)
	if got := len(ls[0].slice(classRead, n-1)); got != 50 {
		t.Fatalf("last slice holds %d reads, want 50", got)
	}
	if got := len(ls[1].slice(classWrite, n-1)); got != 1 {
		t.Fatalf("a write after the last edge is in the last slice %d times, want 1", got)
	}
	w := summarizeWindow(ls, classRead)
	if w.slices != n || w.all.n != 2*50*n {
		t.Fatalf("%d slices, %d samples; want %d, %d", w.slices, w.all.n, n, 2*50*n)
	}
	if w.p99 != 10 {
		t.Errorf("sliced p99 = %v us, want 10", w.p99)
	}
	if w.all.p99 != 1000 {
		t.Errorf("window p99 = %v us, want 1000", w.all.p99)
	}
}

// Every workload runs clean for a second, traced, and reports every metric
// the benchmark declares.
func TestWorkloadsRunClean(t *testing.T) {
	if testing.Short() {
		t.Skip("runs each workload")
	}
	for name, runner := range workloads {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			out, err := runner(runConfig{name: name, seed: 3, seconds: 1, trace: true, dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			if out.checkErr != nil {
				t.Fatalf("check failed: %v", out.checkErr)
			}
			if out.attempted == 0 || out.failed != 0 {
				t.Fatalf("attempted %d, failed %d", out.attempted, out.failed)
			}
			for n := range e2eUnits {
				if v, ok := out.e2e[n]; !ok || v <= 0 {
					t.Errorf("end-to-end %s = %v, %v; want a positive value", n, v, ok)
				}
			}
			for n := range layerUnits {
				if _, ok := out.layers[n]; !ok {
					t.Errorf("per-layer %s missing", n)
				}
			}
		})
	}
	os.RemoveAll(".bench_build")
}
