package main

import (
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/shrink-tm/shrink/internal/tkv"
	"github.com/shrink-tm/shrink/internal/tkvwal"
	"github.com/shrink-tm/shrink/internal/tkvwire"
)

// kv-durable sizes and mix (percentages; the rest is MGet of a group).
const (
	durGroups      = 16   // groups of counters with a constant sum
	durGroupSize   = 4    // counters per group, each on a different shard
	durGroupInit   = 1000 // initial value of every group counter
	durRegs        = 32   // versioned registers per client (Put, CAS)
	durAdders      = 8    // counters per client (Add)
	durFiller      = 1 << 14
	durSetups      = 9
	durCheckpoint  = 10 * time.Second
	durLoadBatch   = 64
	durGetPct      = 20
	durPutPct      = 15
	durCASPct      = 15
	durAddPct      = 15
	durTransferPct = 30
	durMaxDelta    = 9
)

// durable is the kv-durable model. Registers and adders belong to one
// client, which alone writes them; group counters take transfers from
// every client, so their expected values are atomic.
type durable struct {
	groups   [durGroups][durGroupSize]uint64
	groupVal [durGroups][durGroupSize]atomic.Int64
	regs     [clients][durRegs]uint64
	regVer   [clients][durRegs]uint32
	adders   [clients][durAdders]uint64
	adderVal [clients][durAdders]int64
	// filler keys are loaded at set-up and never touched again; they give
	// recovery a log worth replaying, so that set-up time is not a handful
	// of fsyncs alone.
	filler []uint64

	mu      sync.Mutex
	tainted map[uint64]bool // keys a failed request may or may not have changed
}

// newDurable draws the key set from seed: every group's counters on
// distinct shards of a store with shards shards (shardOf), so each transfer
// is a cross-shard batch.
func newDurable(seed uint64, shardOf func(uint64) int) *durable {
	m := &durable{tainted: map[uint64]bool{}}
	rng := rand.New(rand.NewPCG(seed, 0xd0))
	used := map[uint64]bool{}
	fresh := func() uint64 {
		for {
			k := rng.Uint64() >> 1
			if !used[k] {
				used[k] = true
				return k
			}
		}
	}
	for g := range m.groups {
		shards := map[int]bool{}
		for i := 0; i < durGroupSize; {
			k := fresh()
			if shards[shardOf(k)] {
				continue
			}
			shards[shardOf(k)] = true
			m.groups[g][i] = k
			m.groupVal[g][i].Store(durGroupInit)
			i++
		}
	}
	for c := 0; c < clients; c++ {
		for i := range m.regs[c] {
			m.regs[c][i] = fresh()
		}
		for i := range m.adders[c] {
			m.adders[c][i] = fresh()
		}
	}
	m.filler = make([]uint64, durFiller)
	for i := range m.filler {
		m.filler[i] = fresh()
	}
	return m
}

// initial is the set-up data: every key with its starting value.
func (m *durable) initial() []tkv.Op {
	var ops []tkv.Op
	for g := range m.groups {
		for _, k := range m.groups[g] {
			ops = append(ops, tkv.Op{Kind: tkv.OpPut, Key: k, Value: strconv.Itoa(durGroupInit)})
		}
	}
	for c := 0; c < clients; c++ {
		for _, k := range m.regs[c] {
			ops = append(ops, tkv.Op{Kind: tkv.OpPut, Key: k, Value: value(k, 0)})
		}
		for _, k := range m.adders[c] {
			ops = append(ops, tkv.Op{Kind: tkv.OpPut, Key: k, Value: "0"})
		}
	}
	for _, k := range m.filler {
		ops = append(ops, tkv.Op{Kind: tkv.OpPut, Key: k, Value: value(k, 0)})
	}
	return ops
}

func (m *durable) gen(c *kvClient, r *request) {
	p := c.rng.IntN(100)
	id := c.id
	switch {
	case p < durGetPct:
		r.kind, r.sub = kGet, c.rng.IntN(3)
		switch r.sub {
		case 0:
			r.idx = c.rng.IntN(durRegs)
			r.key = m.regs[id][r.idx]
		case 1:
			r.idx = c.rng.IntN(durAdders)
			r.key = m.adders[id][r.idx]
		default:
			r.grp, r.idx = c.rng.IntN(durGroups), c.rng.IntN(durGroupSize)
			r.key = m.groups[r.grp][r.idx]
		}
	case p < durGetPct+durPutPct+durCASPct:
		r.idx = c.rng.IntN(durRegs)
		r.key = m.regs[id][r.idx]
		cur := m.regVer[id][r.idx]
		r.kind, r.ver = kPut, cur+1
		if p >= durGetPct+durPutPct {
			r.kind, r.old = kCAS, value(r.key, cur)
		}
		r.val = value(r.key, r.ver)
	case p < durGetPct+durPutPct+durCASPct+durAddPct:
		r.idx = c.rng.IntN(durAdders)
		r.kind, r.key, r.delta = kAdd, m.adders[id][r.idx], 1+c.rng.Int64N(durMaxDelta)
	case p < durGetPct+durPutPct+durCASPct+durAddPct+durTransferPct:
		r.grp = c.rng.IntN(durGroups)
		from := c.rng.IntN(durGroupSize)
		to := (from + 1 + c.rng.IntN(durGroupSize-1)) % durGroupSize
		r.kind, r.delta, r.idx, r.sub = kBatch, 1+c.rng.Int64N(durMaxDelta), from, to
		r.key = m.groups[r.grp][from]
		r.ops = append(r.ops[:0],
			tkv.Op{Kind: tkv.OpAdd, Key: m.groups[r.grp][from], Delta: -r.delta},
			tkv.Op{Kind: tkv.OpAdd, Key: m.groups[r.grp][to], Delta: r.delta})
	default:
		r.grp = c.rng.IntN(durGroups)
		r.kind, r.keys = kMGet, append(r.keys[:0], m.groups[r.grp][:]...)
		r.key = r.keys[0]
	}
}

func (m *durable) isTainted(keys ...uint64) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, k := range keys {
		if m.tainted[k] {
			return true
		}
	}
	return false
}

func (m *durable) taint(_ *kvClient, r *request) {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch r.kind {
	case kGet, kMGet:
	case kBatch:
		for _, op := range r.ops {
			m.tainted[op.Key] = true
		}
	default:
		m.tainted[r.key] = true
	}
}

func (m *durable) check(c *kvClient, r *request, p *response) error {
	id := c.id
	switch r.kind {
	case kGet:
		if m.isTainted(r.key) {
			return nil
		}
		if !p.found {
			return fmt.Errorf("key %d: lost (not found)", r.key)
		}
		switch r.sub {
		case 0:
			return checkRegister(r.key, p.val, m.regVer[id][r.idx])
		case 1:
			return checkCounter(r.key, p.val, m.adderVal[id][r.idx])
		default:
			if _, err := strconv.ParseInt(p.val, 10, 64); err != nil {
				return fmt.Errorf("key %d: counter %q: %w", r.key, p.val, err)
			}
		}
	case kPut:
		m.regVer[id][r.idx] = r.ver
	case kCAS:
		if !p.found && !m.isTainted(r.key) {
			return fmt.Errorf("key %d: CAS from version %d on the client's own key failed", r.key, r.ver-1)
		}
		if p.found {
			m.regVer[id][r.idx] = r.ver
		}
	case kAdd:
		want := m.adderVal[id][r.idx] + r.delta
		if p.n != want && !m.isTainted(r.key) {
			return fmt.Errorf("key %d: add returned %d, model says %d", r.key, p.n, want)
		}
		m.adderVal[id][r.idx] = p.n
	case kBatch:
		if len(p.results) != len(r.ops) {
			return fmt.Errorf("transfer: %d results for %d ops", len(p.results), len(r.ops))
		}
		m.groupVal[r.grp][r.idx].Add(-r.delta)
		m.groupVal[r.grp][r.sub].Add(r.delta)
	case kMGet:
		if m.isTainted(r.keys...) {
			return nil
		}
		return checkGroupSum(r.keys, p.results, durGroupSize*durGroupInit)
	}
	return nil
}

// checkRegister requires val to be exactly version ver of key.
func checkRegister(key uint64, val string, ver uint32) error {
	got, err := parseValue(val, key)
	if err != nil {
		return err
	}
	if got != ver {
		return fmt.Errorf("key %d: lost write: holds version %d, model says %d", key, got, ver)
	}
	return nil
}

// checkCounter requires val to be the counter value want.
func checkCounter(key uint64, val string, want int64) error {
	n, err := strconv.ParseInt(val, 10, 64)
	if err != nil {
		return fmt.Errorf("key %d: counter %q: %w", key, val, err)
	}
	if n != want {
		return fmt.Errorf("key %d: counter is %d, initial value plus acknowledged deltas is %d", key, n, want)
	}
	return nil
}

// checkGroupSum requires one read of a whole group to sum to the group's
// constant: a transfer seen half applied breaks it.
func checkGroupSum(keys []uint64, res []tkv.OpResult, want int64) error {
	if len(res) != len(keys) {
		return fmt.Errorf("group read: %d results for %d keys", len(res), len(keys))
	}
	var sum int64
	for i, r := range res {
		if !r.Found {
			return fmt.Errorf("key %d: lost (not found)", keys[i])
		}
		n, err := strconv.ParseInt(r.Value, 10, 64)
		if err != nil {
			return fmt.Errorf("key %d: counter %q: %w", keys[i], r.Value, err)
		}
		sum += n
	}
	if sum != want {
		return fmt.Errorf("group %v sums to %d, want %d: a transfer was torn", keys, sum, want)
	}
	return nil
}

// checkRecovered reads every key from a store reopened over the run's log
// and requires the model's value: every counter its initial value plus the
// acknowledged deltas, every register its last acknowledged version, every
// filler key its set-up value.
func (m *durable) checkRecovered(get func(uint64) (string, bool, error)) error {
	read := func(k uint64) (string, bool, error) {
		v, ok, err := get(k)
		if err == nil && !ok {
			err = fmt.Errorf("key %d: lost after reopen (not found)", k)
		}
		return v, ok && !m.tainted[k], err
	}
	for g := range m.groups {
		for i, k := range m.groups[g] {
			v, checked, err := read(k)
			if err != nil {
				return err
			}
			if checked {
				if err := checkCounter(k, v, m.groupVal[g][i].Load()); err != nil {
					return err
				}
			}
		}
	}
	for c := 0; c < clients; c++ {
		for i, k := range m.regs[c] {
			v, checked, err := read(k)
			if err != nil {
				return err
			}
			if checked {
				if err := checkRegister(k, v, m.regVer[c][i]); err != nil {
					return err
				}
			}
		}
		for i, k := range m.adders[c] {
			v, checked, err := read(k)
			if err != nil {
				return err
			}
			if checked {
				if err := checkCounter(k, v, m.adderVal[c][i]); err != nil {
					return err
				}
			}
		}
	}
	for _, k := range m.filler {
		v, _, err := read(k)
		if err != nil {
			return err
		}
		if err := checkRegister(k, v, 0); err != nil {
			return err
		}
	}
	return nil
}

// durableConfig is tkvd's default store with a WAL on the shared lane and
// periodic checkpoints. The log runs in its async mode (acks do not wait for
// an fsync): with sync acks, two closed-loop writers on the reference host
// saw write p99 move between 2.6 and 14 ms and ops/s between 950 and 2250
// from one run to the next with the program unchanged, too wide for any
// bound the benchmark can hold (see README.md).
func durableConfig(dir string) tkv.Config {
	cfg := tkvdConfig()
	cfg.WAL = &tkvwal.Options{Dir: dir, Mode: tkvwal.ModeShared, CheckpointEvery: durCheckpoint, NoSync: true}
	return cfg
}

// setUpDurable writes the initial data through a fresh store in dir,
// closes it and reopens the directory. It returns the reopened store and
// the time the reopen (recovery) took.
func setUpDurable(dir string, m *durable) (*tkv.Store, time.Duration, error) {
	st, err := tkv.Open(durableConfig(dir))
	if err != nil {
		return nil, 0, err
	}
	ops := m.initial()
	for len(ops) > 0 {
		n := min(len(ops), durLoadBatch)
		if _, err := st.Batch(ops[:n]); err != nil {
			st.Close()
			return nil, 0, fmt.Errorf("load: %w", err)
		}
		ops = ops[n:]
	}
	st.Close()
	t0 := time.Now()
	st, err = tkv.Open(durableConfig(dir))
	return st, time.Since(t0), err
}

func runDurable(cfg runConfig) (*outcome, error) {
	probe, err := tkv.Open(tkv.Config{Shards: tkvdConfig().Shards, Buckets: 16})
	if err != nil {
		return nil, err
	}
	m := newDurable(cfg.seed, probe.ShardOf)
	probe.Close()

	var st *tkv.Store
	var dir string
	setups := make([]float64, 0, durSetups)
	recoveries := make([]float64, 0, durSetups)
	for i := 0; i < durSetups; i++ {
		// Earlier set-ups' directories stay until the run ends: removing
		// them frees blocks, and on a filesystem mounted with discard the
		// next fsyncs pay for that, inside the window.
		if st != nil {
			st.Close()
			st = nil
			runtime.GC() // the closed store is collected outside the timing
		}
		dir = filepath.Join(cfg.dir, fmt.Sprintf("wal-%d", i))
		t0 := time.Now()
		var rec time.Duration
		if st, rec, err = setUpDurable(dir, m); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		recoveries = append(recoveries, rec.Seconds())
	}
	fmt.Printf("# setup: %d groups × %d counters, %d registers and %d adders per client, %d filler keys, %d set-ups, seconds %.4g, recovery seconds %.4g\n",
		durGroups, durGroupSize, durRegs, durAdders, durFiller, durSetups, setups, recoveries)

	var errs checkErr
	res, err := runKV(cfg, m, st, &errs, func(*tkvwire.Conn) error { return nil })
	st.Close()
	if err != nil {
		return nil, err
	}
	out := kvMetrics(cfg, res, median(setups), median(recoveries))

	// Reopen the log the run wrote and check what it recovered.
	st, err = tkv.Open(durableConfig(dir))
	if err != nil {
		errs.set(fmt.Errorf("reopen after the run: %w", err))
	} else {
		if err := m.checkRecovered(st.Get); err != nil {
			errs.set(fmt.Errorf("after reopen: %w", err))
		}
		st.Close()
	}
	out.checkErr = errs.get()
	return out, nil
}
