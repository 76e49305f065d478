package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
	"time"
)

// probe is the traced run's recorder: wall time and counts accumulated at
// each public call into a layer, plus CPU-profile samples attributed to
// the internal packages their stacks pass through.
type probe struct {
	sums map[string]float64

	prof        bytes.Buffer
	profSamples int            // CPU-profile samples over all profiled passes
	profLayers  map[string]int // samples whose stack passes through a layer
}

func newProbe() *probe {
	return &probe{sums: map[string]float64{}, profLayers: map[string]int{}}
}

// add accumulates v under key.
func (p *probe) add(key string, v float64) { p.sums[key] += v }

// since accumulates the wall milliseconds elapsed since t0 under key and
// counts one call under key+".calls".
func (p *probe) since(key string, t0 time.Time) {
	p.sums[key] += float64(time.Since(t0).Nanoseconds()) / 1e6
	p.sums[key+".calls"]++
}

// mean is sums[key] / sums[per], or 0 when nothing was counted.
func (p *probe) mean(key, per string) float64 {
	if p.sums[per] == 0 {
		return 0
	}
	return p.sums[key] / p.sums[per]
}

// perCall is the mean of key over its recorded calls.
func (p *probe) perCall(key string) float64 { return p.mean(key, key+".calls") }

func (p *probe) startProfile() error {
	p.prof.Reset()
	return pprof.StartCPUProfile(&p.prof)
}

func (p *probe) stopProfile() error {
	pprof.StopCPUProfile()
	return p.attribute(p.prof.Bytes())
}

// share is the percentage of CPU-profile samples whose stack passes
// through the layer (0 without samples).
func (p *probe) share(layer string) float64 {
	if p.profSamples == 0 {
		return 0
	}
	return 100 * float64(p.profLayers[layer]) / float64(p.profSamples)
}

// cpuShares reports each layer's share of CPU-profile samples.
func (p *probe) cpuShares(m map[string]float64) {
	for _, l := range cpuLayers {
		m[l+".cpu_pct"] = p.share(l)
	}
	m["runtime.malloc_pct"] = p.share("runtime.malloc")
	m["runtime.gc_pct"] = p.share("runtime.gc")
}

// frameLayer maps one symbol to the layer it belongs to, or "".
func frameLayer(fn string) string {
	const prefix = "haxconn/internal/"
	if rest, ok := strings.CutPrefix(fn, prefix); ok {
		if i := strings.IndexByte(rest, '.'); i > 0 {
			return rest[:i]
		}
		return ""
	}
	switch {
	case fn == "runtime.mallocgc":
		return "runtime.malloc"
	case strings.HasPrefix(fn, "runtime.gcBgMarkWorker"), strings.HasPrefix(fn, "runtime.gcAssistAlloc"),
		fn == "runtime.gcDrain", fn == "runtime.bgsweep", fn == "runtime.bgscavenge", fn == "runtime.GC":
		return "runtime.gc"
	}
	return ""
}

// attribute decodes one gzipped profile.proto CPU profile and adds its
// samples to the layer counts. Each sample counts once per layer its stack
// passes through, weighted by its sample count.
func (p *probe) attribute(raw []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	prof, err := decodeProfile(data)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	for _, s := range prof.samples {
		if len(s.values) == 0 {
			continue
		}
		n := int(s.values[0])
		p.profSamples += n
		seen := map[string]bool{}
		for _, loc := range s.locations {
			for _, fid := range prof.locFuncs[loc] {
				if l := frameLayer(prof.funcName(fid)); l != "" && !seen[l] {
					seen[l] = true
					p.profLayers[l] += n
				}
			}
		}
	}
	return nil
}
