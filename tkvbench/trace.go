package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// Span names. A span covers one call the benchmark makes into a layer's
// public functions; spans of one request share its client and request
// number, and the tkv.* span of a write is the parent of its tkvwal.stage
// span.
const (
	spWireGet uint16 = iota
	spWirePut
	spWireCAS
	spWireAdd
	spWireMGet
	spWireBatch
	spStoreGet
	spStorePut
	spStoreCAS
	spStoreAdd
	spStoreMGet
	spStoreBatch
	spWalStage
	spSTMTx
	numSpans
)

var spanNames = [numSpans]string{
	"tkvwire.get", "tkvwire.put", "tkvwire.cas", "tkvwire.add", "tkvwire.mget", "tkvwire.batch",
	"tkv.get", "tkv.put", "tkv.cas", "tkv.add", "tkv.mget", "tkv.batch",
	"tkvwal.stage", "stm.tx",
}

// span is one recorded interval, in nanoseconds since the run's epoch.
type span struct {
	start, end int64
	req        uint32
	name       uint16
	client     uint16
}

// tracer keeps one client's spans in memory. A nil tracer records nothing.
type tracer struct {
	epoch  time.Time
	client uint16
	spans  []span
}

// newTracer returns a tracer with an off-heap buffer for rate spans per
// second over a window of the given length.
func newTracer(epoch time.Time, client, rate, seconds int) *tracer {
	return &tracer{epoch: epoch, client: uint16(client), spans: offHeap[span](rate * seconds)}
}

// record appends one span; like samples.add, it never grows the buffer.
func (t *tracer) record(name uint16, req uint32, start, end time.Time) {
	if t == nil {
		return
	}
	if len(t.spans) == cap(t.spans) {
		panic("tkvbench: span buffer full; raise the client rate ceiling")
	}
	t.spans = append(t.spans, span{start: int64(start.Sub(t.epoch)), end: int64(end.Sub(t.epoch)), req: req, name: name, client: t.client})
}

// durations returns the lengths of the named spans across tracers.
func durations(ts []*tracer, names ...uint16) samples {
	var out samples
	for _, t := range ts {
		for _, s := range t.spans {
			for _, n := range names {
				if s.name == n {
					out = append(out, nanos(time.Duration(s.end-s.start)))
				}
			}
		}
	}
	return out
}

// writeSpans writes every span to path: one text header line naming the
// span ids in order, then fixed 24-byte little-endian records
// {start_ns int64, end_ns int64, req uint32, name uint16, client uint16}.
func writeSpans(path string, ts []*tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, "tkvbench-spans v1 %s\n", strings.Join(spanNames[:], ","))
	var rec [24]byte
	n := 0
	for _, t := range ts {
		for _, s := range t.spans {
			binary.LittleEndian.PutUint64(rec[0:], uint64(s.start))
			binary.LittleEndian.PutUint64(rec[8:], uint64(s.end))
			binary.LittleEndian.PutUint32(rec[16:], s.req)
			binary.LittleEndian.PutUint16(rec[20:], s.name)
			binary.LittleEndian.PutUint16(rec[22:], s.client)
			w.Write(rec[:])
			n++
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("# spans: %d written to %s\n", n, path)
	return nil
}
