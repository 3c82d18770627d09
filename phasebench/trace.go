package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	goruntime "runtime"
	"strings"

	"commintent/internal/telemetry"
)

// modules are the layers CPU and allocation shares are reported for: the
// program's packages under commintent/internal, "bench" for the
// benchmark's own frames (input fills and checks), and "go" for samples
// with neither (GC workers, the scheduler).
var modules = []string{
	"spmd", "wllsms", "pragma", "plan", "core", "runtime", "mpi", "coll",
	"typemap", "simnet", "transport", "shmem", "model", "telemetry", "trace",
	"go", "bench",
}

const internalPrefix = "commintent/internal/"

// moduleOf names the module a function belongs to: a package under
// commintent/internal, or "bench" for package main.
func moduleOf(fn string) (string, bool) {
	if rest, ok := strings.CutPrefix(fn, internalPrefix); ok {
		if i := strings.IndexAny(rest, "./"); i > 0 {
			return rest[:i], true
		}
		return rest, true
	}
	if strings.HasPrefix(fn, "main.") {
		return "bench", true
	}
	return "", false
}

// sample is one profile sample: function names innermost first, and its
// weight (CPU nanoseconds or allocated bytes).
type sample struct {
	stack []string
	value float64
}

// attribute assigns a sample to its innermost frame that belongs to a
// module, so runtime work a layer causes (allocation, memmove, parking)
// counts against that layer; a sample with no such frame is "go".
func attribute(stack []string) string {
	for _, fn := range stack {
		if m, ok := moduleOf(fn); ok {
			return m
		}
	}
	return "go"
}

// shares reports each module's part of the samples' total weight. Every
// module in modules gets an entry.
func shares(samples []sample) map[string]float64 {
	by := map[string]float64{}
	var total float64
	for _, s := range samples {
		by[attribute(s.stack)] += s.value
		total += s.value
	}
	out := make(map[string]float64, len(modules))
	for _, m := range modules {
		if total > 0 {
			out[m] = by[m] / total
		} else {
			out[m] = 0
		}
	}
	return out
}

// Allocation sampling: one sample per allocSampleRate bytes on average
// during the allocation pass, and Go's default outside it.
const (
	allocSampleRate       = 4096
	defaultMemProfileRate = 512 * 1024
)

type allocKey struct {
	stack [32]uintptr
	size  int64
}

// allocRecords snapshots the cumulative allocation profile. Two
// collections first publish every allocation made so far.
func allocRecords() map[allocKey]goruntime.MemProfileRecord {
	goruntime.GC()
	goruntime.GC()
	n, _ := goruntime.MemProfile(nil, true)
	var recs []goruntime.MemProfileRecord
	for {
		recs = make([]goruntime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = goruntime.MemProfile(recs, true); ok {
			recs = recs[:n]
			break
		}
	}
	out := make(map[allocKey]goruntime.MemProfileRecord, len(recs))
	for _, r := range recs {
		if r.AllocObjects > 0 {
			out[allocKey{r.Stack0, r.AllocBytes / r.AllocObjects}] = r
		}
	}
	return out
}

// allocSamples turns the growth between two snapshots into samples, each
// scaled to the bytes it stands for at the given sampling rate (as pprof
// scales a heap profile).
func allocSamples(before, after map[allocKey]goruntime.MemProfileRecord, rate int) []sample {
	var out []sample
	for k, r := range after {
		b := r.AllocBytes - before[k].AllocBytes
		o := r.AllocObjects - before[k].AllocObjects
		if o <= 0 || b <= 0 {
			continue
		}
		avg := float64(b) / float64(o)
		scale := 1 / (1 - math.Exp(-avg/float64(rate)))
		out = append(out, sample{stack: frameNames(r.Stack()), value: float64(b) * scale})
	}
	return out
}

func frameNames(pcs []uintptr) []string {
	var names []string
	frames := goruntime.CallersFrames(pcs)
	for {
		f, more := frames.Next()
		names = append(names, f.Function)
		if !more {
			return names
		}
	}
}

// parseCPUProfile decodes a (gzipped) pprof profile into samples weighted
// by CPU time. Only the fields attribution needs are read: samples,
// locations with their (inlined) lines, functions and the string table.
func parseCPUProfile(data []byte) ([]sample, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	type rawSample struct{ locs, vals []uint64 }
	var (
		types   []uint64 // sample_type string indexes
		raws    []rawSample
		locFns  = map[uint64][]uint64{} // location id -> function ids, innermost first
		fnNames = map[uint64]uint64{}   // function id -> name string index
		strs    []string
	)
	err := pbFields(data, func(f pbField) error {
		switch f.num {
		case 1: // sample_type
			return pbFields(f.b, func(g pbField) error {
				if g.num == 1 {
					types = append(types, g.v)
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := pbFields(f.b, func(g pbField) error {
				var err error
				switch g.num {
				case 1:
					s.locs, err = pbInts(g, s.locs)
				case 2:
					s.vals, err = pbInts(g, s.vals)
				}
				return err
			})
			raws = append(raws, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := pbFields(f.b, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.v
				case 4: // line
					return pbFields(g.b, func(h pbField) error {
						if h.num == 1 {
							fns = append(fns, h.v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := pbFields(f.b, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.v
				case 2:
					name = g.v
				}
				return nil
			})
			fnNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(f.b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	vi := len(types) - 1
	for i, t := range types {
		if str(t) == "cpu" {
			vi = i
		}
	}
	if vi < 0 {
		return nil, errors.New("profile has no sample types")
	}
	out := make([]sample, 0, len(raws))
	for _, r := range raws {
		if vi >= len(r.vals) {
			return nil, fmt.Errorf("sample has %d values, want %d", len(r.vals), len(types))
		}
		var stack []string
		for _, loc := range r.locs {
			for _, fn := range locFns[loc] {
				stack = append(stack, str(fnNames[fn]))
			}
		}
		out = append(out, sample{stack: stack, value: float64(int64(r.vals[vi]))})
	}
	return out, nil
}

// pbField is one protobuf field: its number, wire type, and either its
// integer value or its bytes.
type pbField struct {
	num, wire int
	v         uint64
	b         []byte
}

var errTruncated = errors.New("truncated protobuf")

// pbFields calls f for each field of the protobuf message b.
func pbFields(b []byte, f func(pbField) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		fl := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch fl.wire {
		case 0:
			if fl.v, n = binary.Uvarint(b); n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			fl.v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errTruncated
			}
			fl.b, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			fl.v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("protobuf wire type %d", fl.wire)
		}
		if err := f(fl); err != nil {
			return err
		}
	}
	return nil
}

// pbInts appends a repeated integer field, packed or not, to dst.
func pbInts(f pbField, dst []uint64) ([]uint64, error) {
	switch f.wire {
	case 0:
		return append(dst, f.v), nil
	case 2:
		for b := f.b; len(b) > 0; {
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return nil, errTruncated
			}
			dst, b = append(dst, v), b[n:]
		}
		return dst, nil
	}
	return nil, fmt.Errorf("protobuf wire type %d for an integer", f.wire)
}

// counters is one snapshot of the telemetry registry, summed over ranks:
// sum["name"] and sum["name|kind"] for series with a kind label (a
// histogram contributes its sum), and max["name"] over ranks.
type counters struct {
	sum, max map[string]float64
}

func snapCounters(t *telemetry.Telemetry) (counters, error) {
	c := counters{sum: map[string]float64{}, max: map[string]float64{}}
	raw, err := t.Registry().SnapshotJSON()
	if err != nil {
		return c, err
	}
	var series map[string]json.RawMessage
	if err := json.Unmarshal(raw, &series); err != nil {
		return c, err
	}
	for key, msg := range series {
		var v float64
		if bytes.HasPrefix(msg, []byte("{")) {
			var h struct {
				SumNS float64 `json:"sum_ns"`
			}
			if err := json.Unmarshal(msg, &h); err != nil {
				return c, err
			}
			v = h.SumNS
		} else if err := json.Unmarshal(msg, &v); err != nil {
			return c, err
		}
		name, labels, _ := strings.Cut(key, "{")
		c.sum[name] += v
		c.max[name] = math.Max(c.max[name], v)
		if _, kind, ok := strings.Cut(labels, `kind="`); ok {
			kind, _, _ = strings.Cut(kind, `"`)
			c.sum[name+"|"+kind] += v
		}
	}
	return c, nil
}
