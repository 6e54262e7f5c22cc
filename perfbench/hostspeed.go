package main

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark runs on is a share of a machine that other
// tenants use, and its speed drifts: whole runs of unchanged code moved
// by 30–40% over a few minutes, every workload's latencies moving
// together, with process CPU time tracking wall time. So a run also
// times a fixed piece of work that uses none of the program's code, the
// host probe, beside its set-ups and its operations, and reports its
// time metrics scaled to a reference host speed:
//
//	scaled = measured × probeRefMS / median probe time beside them
//
// A change to the program moves the measured times and not the probe,
// so it shows in the scaled metrics in full; a slower or faster host
// moves both, and cancels. The unscaled values are on the report line
// as raw.<name>, with the probe's medians as host.probe_ms.<kind>.

// probeRefMS is the probe's median time on the reference host (a
// 2-vCPU VM, Go 1.24) at which scaled metrics equal measured ones.
const probeRefMS = 3.4

// probeN is how many integers the probe sorts. Of the probes tried
// (sorting, an open-addressing hash table, a map of strings, small
// allocations, a pointer chase through 8 MiB), a sort tracked the
// paper-warm rounds best: over 150 s of rounds whose 10-second medians
// swung from 417 to 587 ms, the ratio of round time to sort time moved
// a third as much.
const probeN = 1 << 15

// probe is the host probe. Its buffers live outside the Go heap, so the
// live heap and the GC pacing the program sees are its own. Samples are
// kept apart by what they sit next to: the set-ups or the measured
// operations.
type probe struct {
	src, buf []int
	samples  map[string][]float64 // ms, by "setup", "run" or "qps"
	sink     int
}

func newProbe() *probe {
	rng := rand.New(rand.NewPCG(1, 2))
	p := &probe{src: offHeap[int](probeN), buf: offHeap[int](probeN), samples: map[string][]float64{}}
	for i := range p.src {
		p.src[i] = rng.IntN(1 << 30)
	}
	return p
}

// offHeap returns n zeroed values in anonymous memory mapped for the
// life of the process.
func offHeap[T any](n int) []T {
	var zero T
	b, err := syscall.Mmap(-1, 0, n*int(unsafe.Sizeof(zero)), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(fmt.Sprintf("host probe: mmap: %v", err))
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n)
}

// sample times the probe's work once and files the time under kind.
func (p *probe) sample(kind string) {
	t0 := time.Now()
	copy(p.buf, p.src)
	slices.Sort(p.buf)
	p.sink += p.buf[len(p.buf)/2]
	p.samples[kind] = append(p.samples[kind], ms(time.Since(t0)))
}

// every samples the probe under kind each interval until stop is
// closed, then closes done.
func (p *probe) every(kind string, interval time.Duration, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			p.sample(kind)
		}
	}
}

// scaledMetrics are the end-to-end time metrics the probe scales:
// latencies multiply by the scale, rates divide by it.
var scaledMetrics = map[string]bool{"setup_s": false, "read_ms": false, "tail_ms": false, "qps": true}

// scale reports the probe's medians and rewrites the end-to-end time
// metrics in m to the reference host speed, keeping each measured value
// as raw.<name>. Each metric is scaled by the samples taken beside what
// it measures: setup_s by the "setup" samples, qps by the "qps" samples
// where a workload takes them apart (serve-open's closed-loop phase),
// the others by the "run" samples.
func (p *probe) scale(m metricSet) {
	for name, isRate := range scaledMetrics {
		v, ok := m[name]
		if !ok {
			continue
		}
		kind := "run"
		if k := scaleKind[name]; len(p.samples[k]) > 0 {
			kind = k
		}
		f := probeRefMS / median(p.samples[kind])
		m["raw."+name] = v
		if isRate {
			v.Value /= f
		} else {
			v.Value *= f
		}
		m[name] = v
	}
	for kind, xs := range p.samples {
		med := median(xs)
		m.set("host.probe_ms."+kind, med, "ms")
		m.set("host.speed."+kind, probeRefMS/med, "ratio")
	}
}

// scaleKind names the probe samples a metric is scaled by when the
// workload took them; "run" otherwise.
var scaleKind = map[string]string{"setup_s": "setup", "qps": "qps"}
