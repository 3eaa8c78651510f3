package main

import (
	"sync"
	"time"

	"mrbc/internal/bitset"
	"mrbc/internal/dgalois"
	"mrbc/internal/gluon"
)

// Probes time a module's public functions directly, outside any run,
// so a change to one module shows in its own number first. Each probe
// warms up, then times at least probeIters calls one by one, and
// reports the median and the highest percentile with ten samples
// beyond it. Payload sizes come from the workload's measured
// gluon.bytes_per_message, not from a guess.
const (
	probeIters  = 1000
	probeWarm   = 100
	updateBytes = 16 // one synchronized label: the 16-byte payload of a (dist, σ) update
)

// probe reports per-call times scaled by 1/per into the named metric.
func probe(set metricSet, spans *spanLog, name string, per float64, call func()) {
	samples := make([]float64, probeIters)
	spans.in("probe:"+name, 0, func() {
		for i := 0; i < probeWarm; i++ {
			call()
		}
		for i := range samples {
			t0 := time.Now()
			call()
			samples[i] = float64(time.Since(t0).Nanoseconds()) / per
		}
	})
	record(set, name, samples)
}

func record(set metricSet, name string, samples []float64) {
	set.sampled(name, samples)
	if v, label, ok := tail(samples); ok {
		m := set[name]
		m.Tail, m.TailLabel = v, label
		set[name] = m
	}
}

// probes runs the gluon and dgalois probes of a distributed workload.
// bpm is the workload's mean message size in bytes.
func probes(set metricSet, w workload, spans *spanLog, bpm int) error {
	bpm = max(bpm, updateBytes)
	codecProbes(set, spans, bpm)

	payload := make([]byte, bpm)
	for i := range payload {
		payload[i] = byte(i)
	}
	probe(set, spans, "gluon.frame_ns_per_kb", float64(bpm)/1024, func() {
		if _, _, err := gluon.DecodeFrame(gluon.EncodeFrame(7, payload)); err != nil {
			panic(err) // a frame just encoded must decode
		}
	})

	if w.tcp {
		if err := tcpProbes(set, spans, payload); err != nil {
			return err
		}
	} else if err := memProbes(set, spans, payload); err != nil {
		return err
	}

	cluster := dgalois.NewCluster(hosts)
	defer cluster.Close()
	probe(set, spans, "dgalois.empty_exchange_us", 1e3, func() {
		cluster.Exchange(func(from, to int, w *gluon.Writer) {}, func(to, from int, data []byte, dec *gluon.Decoder) {})
	})
	probe(set, spans, "dgalois.empty_compute_us", 1e3, func() {
		cluster.Compute(func(host int) {})
	})
	return nil
}

// codecProbes times EncodeUpdates and DecodeUpdates at 1%, 50% and
// 100% of a shared list marked, which select the sparse, dense and
// all-marked metadata formats. Every message carries bpm bytes of
// 16-byte updates, so the list is longer the sparser the marks.
func codecProbes(set metricSet, spans *spanLog, bpm int) {
	marks := max(bpm/updateBytes, 1)
	for _, c := range []struct {
		name   string
		every  int // one position in `every` is marked
		format gluon.Format
	}{{"sparse", 100, gluon.FormatSparse}, {"dense", 2, gluon.FormatDense}, {"all", 1, gluon.FormatAll}} {
		listLen := marks * c.every
		marked := bitset.New(listLen)
		for i := 0; i < marks; i++ {
			marked.Set(i * c.every)
		}
		var w gluon.Writer
		emit := func(pos int, w *gluon.Writer) {
			w.U64(uint64(pos))
			w.F64(float64(pos))
		}
		encode := func() {
			w.Reset()
			gluon.EncodeUpdates(&w, listLen, marked, emit)
		}
		encode()
		if got := gluon.Format(w.Bytes()[0]); got != c.format {
			panic("benchmark: " + c.name + " codec probe encoded as " + got.String())
		}
		probe(set, spans, "gluon.encode_ns_per_update_"+c.name, float64(marks), encode)
		msg := append([]byte(nil), w.Bytes()...)
		dec := gluon.NewDecoder()
		var sink uint64
		probe(set, spans, "gluon.decode_ns_per_update_"+c.name, float64(marks), func() {
			dec.DecodeUpdates(listLen, msg, func(pos int, r *gluon.Reader) {
				sink += r.U64()
				r.F64()
			})
		})
		_ = sink
	}
}

// memProbes drives one four-host all-to-all Send+Gather, and one
// all-reduce, straight through the in-process transport.
func memProbes(set metricSet, spans *spanLog, payload []byte) error {
	m := gluon.NewMemTransport(hosts)
	ex := 0
	probe(set, spans, "gluon.mem_exchange_us", 1e3, func() {
		allToAll(m, ex, payload)
		ex++
	})
	return lockstep(set, spans, "gluon.mem_allreduce_us", func(h int) error {
		_, err := m.AllReduce(h, int64(h), gluon.ReduceSum)
		return err
	})
}

// allToAll sends payload on every channel of exchange ex and gathers at
// every host, from one goroutine: in process no call blocks.
func allToAll(t gluon.Transport, ex int, payload []byte) {
	for from := 0; from < hosts; from++ {
		for to := 0; to < hosts; to++ {
			if from != to {
				if err := t.Send(ex, from, to, payload); err != nil {
					panic(err) // MemTransport.Send never fails
				}
			}
		}
	}
	for to := 0; to < hosts; to++ {
		if _, err := t.Gather(ex, to); err != nil {
			panic(err) // MemTransport.Gather never fails
		}
	}
}

// tcpProbes drives the same exchange and all-reduce over a localhost
// TCP mesh, one goroutine per host as in an SPMD run.
func tcpProbes(set metricSet, spans *spanLog, payload []byte) error {
	mesh, err := bringUpTCP()
	if err != nil {
		return err
	}
	defer closeAll(mesh)
	exs := make([]int, hosts)
	if err := lockstep(set, spans, "gluon.tcp_exchange_us", func(h int) error {
		ex := exs[h]
		exs[h]++
		for to := 0; to < hosts; to++ {
			if to != h {
				if err := mesh[h].Send(ex, h, to, payload); err != nil {
					return err
				}
			}
		}
		_, err := mesh[h].Gather(ex, h)
		return err
	}); err != nil {
		return err
	}
	return lockstep(set, spans, "gluon.tcp_allreduce_us", func(h int) error {
		_, err := mesh[h].AllReduce(h, int64(h), gluon.ReduceSum)
		return err
	})
}

// lockstep runs op on four goroutines, one per host, probeWarm+
// probeIters times each, and records host 0's per-call times in
// microseconds. The ops rendezvous (a gather or reduce returns only
// once every host contributed), so host 0's time is the collective's.
func lockstep(set metricSet, spans *spanLog, name string, op func(host int) error) error {
	samples := make([]float64, probeIters)
	errs := make([]error, hosts)
	spans.in("probe:"+name, 0, func() {
		var wg sync.WaitGroup
		for h := 0; h < hosts; h++ {
			wg.Add(1)
			go func(h int) {
				defer wg.Done()
				for i := -probeWarm; i < probeIters; i++ {
					t0 := time.Now()
					if errs[h] = op(h); errs[h] != nil {
						return
					}
					if h == 0 && i >= 0 {
						samples[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
					}
				}
			}(h)
		}
		wg.Wait()
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	record(set, name, samples)
	return nil
}
