package main

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/shrink-tm/shrink/internal/tkv"
	"github.com/shrink-tm/shrink/internal/tkvwire"
)

// kv-large-read sizes. 2^17 keys over tkvd's 8 shards × 512 buckets give
// sorted hash chains 32 nodes deep; the loaded data set is ~20 MB of heap.
const (
	largeKeys   = 1 << 17
	largeSetups = 9
	largeMGet   = 8
	largeSweep  = 256 // keys per MGet of the final sweep
	valueLen    = 64
	valueHdrLen = 16 + 1 + 8 + 1
	largeGetPct = 90
	largePutPct = 5 // the rest is MGet
)

// tkvdConfig is the store configuration tkvd serves with by default.
func tkvdConfig() tkv.Config {
	return tkv.Config{Shards: 8, PoolSize: 4, Buckets: 512, Engine: "swiss", Scheduler: "shrink", ReplRing: 1024}
}

// appendValue appends the versioned value of key: the key and version in
// hex, then filler bytes that depend on both, valueLen bytes in all.
func appendValue(b []byte, key uint64, ver uint32) []byte {
	b = fmt.Appendf(b, "%016x:%08x:", key, ver)
	fill := byte('a' + (key+uint64(ver))%26)
	for len(b) < valueLen {
		b = append(b, fill)
	}
	return b
}

func value(key uint64, ver uint32) string { return string(appendValue(nil, key, ver)) }

// parseValue checks that v is a well-formed value of key and returns its
// version.
func parseValue(v string, key uint64) (uint32, error) {
	if len(v) != valueLen || v[16] != ':' || v[25] != ':' {
		return 0, fmt.Errorf("key %d: malformed value %q", key, v)
	}
	k, err := strconv.ParseUint(v[:16], 16, 64)
	if err != nil || k != key {
		return 0, fmt.Errorf("key %d: value names key %q", key, v[:16])
	}
	ver, err := strconv.ParseUint(v[17:25], 16, 32)
	if err != nil {
		return 0, fmt.Errorf("key %d: bad version in %q", key, v)
	}
	fill := byte('a' + (key+ver)%26)
	for i := valueHdrLen; i < len(v); i++ {
		if v[i] != fill {
			return 0, fmt.Errorf("key %d: torn value %q", key, v)
		}
	}
	return uint32(ver), nil
}

// largeRead is the kv-large-read model. Client c writes only the keys
// k with k%clients == c; issued is the newest version any writer has
// sent for a key, acked the newest its owner saw acknowledged.
type largeRead struct {
	n      uint64
	issued []atomic.Uint32
	acked  []uint32 // element k is touched only by k's owner
}

func newLargeRead(n uint64) *largeRead {
	return &largeRead{n: n, issued: make([]atomic.Uint32, n), acked: make([]uint32, n)}
}

func (m *largeRead) gen(c *kvClient, r *request) {
	p := c.rng.IntN(100)
	switch {
	case p < largeGetPct:
		r.kind, r.key = kGet, c.rng.Uint64N(m.n)
	case p < largeGetPct+largePutPct:
		k := c.rng.Uint64N(m.n/clients)*clients + uint64(c.id)
		r.kind, r.key, r.ver = kPut, k, m.issued[k].Add(1)
		c.buf = appendValue(c.buf[:0], k, r.ver)
		r.val = string(c.buf)
	default:
		r.kind, r.keys = kMGet, r.keys[:0]
		for i := 0; i < largeMGet; i++ {
			r.keys = append(r.keys, c.rng.Uint64N(m.n))
		}
	}
}

func (m *largeRead) check(c *kvClient, r *request, p *response) error {
	switch r.kind {
	case kGet:
		return m.checkRead(c.id, r.key, p.val, p.found)
	case kPut:
		m.acked[r.key] = r.ver
	case kMGet:
		if len(p.results) != len(r.keys) {
			return fmt.Errorf("%d results for %d keys", len(p.results), len(r.keys))
		}
		for i, k := range r.keys {
			if err := m.checkRead(c.id, k, p.results[i].Value, p.results[i].Found); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkRead accepts a read of key by client id when the value is well
// formed, names its key, carries a version no newer than any writer has
// issued, and — for the reader's own keys — is exactly the version it last
// saw acknowledged.
func (m *largeRead) checkRead(id int, key uint64, val string, found bool) error {
	if !found {
		return fmt.Errorf("key %d: lost (not found)", key)
	}
	ver, err := parseValue(val, key)
	if err != nil {
		return err
	}
	if iss := m.issued[key].Load(); ver > iss {
		return fmt.Errorf("key %d: read version %d, newer than any issued (%d)", key, ver, iss)
	}
	if key%clients == uint64(id) && ver != m.acked[key] {
		return fmt.Errorf("key %d: lost write: read version %d after version %d was acknowledged", key, ver, m.acked[key])
	}
	return nil
}

// taint needs nothing: a failed put leaves issued ahead of acked, and the
// final sweep accepts any version between the two.
func (m *largeRead) taint(*kvClient, *request) {}

// sweep reads every key through c and requires the model's value: exactly
// the acknowledged version, or for a key with a failed put any version
// between the acknowledged and the issued one.
func (m *largeRead) sweep(c *tkvwire.Conn) error {
	keys := make([]uint64, 0, largeSweep)
	for base := uint64(0); base < m.n; base += largeSweep {
		keys = keys[:0]
		for k := base; k < min(base+largeSweep, m.n); k++ {
			keys = append(keys, k)
		}
		res, err := c.MGet(keys)
		if err != nil {
			return fmt.Errorf("final sweep: %w", err)
		}
		if err := m.checkSweep(keys, res); err != nil {
			return fmt.Errorf("final sweep: %w", err)
		}
	}
	return nil
}

func (m *largeRead) checkSweep(keys []uint64, res []tkv.OpResult) error {
	if len(res) != len(keys) {
		return fmt.Errorf("%d results for %d keys", len(res), len(keys))
	}
	for i, k := range keys {
		if !res[i].Found {
			return fmt.Errorf("key %d: lost (not found)", k)
		}
		ver, err := parseValue(res[i].Value, k)
		if err != nil {
			return err
		}
		if lo, hi := m.acked[k], m.issued[k].Load(); ver < lo || ver > hi {
			return fmt.Errorf("key %d: holds version %d, model says %d (issued %d)", k, ver, lo, hi)
		}
	}
	return nil
}

// loadLarge opens a store with tkvd's defaults and puts every key at
// version 0, one goroutine per client over its own keys.
func loadLarge(n uint64) (*tkv.Store, error) {
	st, err := tkv.Open(tkvdConfig())
	if err != nil {
		return nil, err
	}
	errc := make(chan error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []byte
			for k := uint64(c); k < n; k += clients {
				buf = appendValue(buf[:0], k, 0)
				if _, err := st.Put(k, string(buf)); err != nil {
					errc <- fmt.Errorf("load key %d: %w", k, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	if err := <-errc; err != nil {
		st.Close()
		return nil, err
	}
	return st, nil
}

func runLargeRead(cfg runConfig) (*outcome, error) {
	var st *tkv.Store
	times := make([]float64, 0, largeSetups)
	for i := 0; i < largeSetups; i++ {
		if st != nil {
			st.Close()
			st = nil
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if st, err = loadLarge(largeKeys); err != nil {
			return nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	defer st.Close()
	fmt.Printf("# setup: %d keys × %d B, %d set-ups, seconds %.4g\n", largeKeys, valueLen, largeSetups, times)

	m := newLargeRead(largeKeys)
	var errs checkErr
	res, err := runKV(cfg, m, st, &errs, m.sweep)
	if err != nil {
		return nil, err
	}
	out := kvMetrics(cfg, res, median(times), 0)
	out.checkErr = errs.get()
	return out, nil
}
