package harness

import (
	"sort"
	"sync"
	"time"

	"pqtls/internal/perf"
)

// Streaming campaign aggregation. The grid used to buffer every sample of
// every cell ([][]*sampleResult) until the whole campaign finished, which
// makes memory grow linearly with Samples — hostile to 100k-sample
// sweeps. A cellAggregator instead folds each
// sample into the row the moment it completes, in whatever order the worker
// pool delivers them, and retains only value-frequency maps.
//
// Every aggregate the row reports is either order-independent by algebra
// (sums: CPU, cycle mean, profiler span totals) or an exact order statistic
// (medians), so "streaming" loses nothing: the medians are recovered from
// counting distributions by a cumulative walk that reproduces stats.Median
// bit-for-bit, including its even-count two-middle average with integer
// division. Memory per cell is O(distinct values), not O(samples) — and the
// modeled pipeline emits a handful of distinct values per metric, so cells
// stay constant-size while samples scale unbounded.

// countingDist is a frequency map over duration-valued observations. It
// stands in for a sorted sample slice: median() is an exact order-statistic
// walk, identical to stats.Median over the expanded multiset.
type countingDist struct {
	counts map[time.Duration]uint64
	n      uint64
}

func newCountingDist() *countingDist {
	return &countingDist{counts: make(map[time.Duration]uint64)}
}

func (d *countingDist) add(v time.Duration) {
	d.counts[v]++
	d.n++
}

// kth returns the 0-indexed k-th smallest observation.
func (d *countingDist) kth(keys []time.Duration, k uint64) time.Duration {
	var cum uint64
	for _, key := range keys {
		cum += d.counts[key]
		if cum > k {
			return key
		}
	}
	return keys[len(keys)-1]
}

// median reproduces stats.Median over the multiset: the middle element for
// odd counts, the integer-divided average of the two middles for even.
func (d *countingDist) median() time.Duration {
	if d.n == 0 {
		return 0
	}
	keys := make([]time.Duration, 0, len(d.counts))
	for k := range d.counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	if d.n%2 == 1 {
		return d.kth(keys, d.n/2)
	}
	return (d.kth(keys, d.n/2-1) + d.kth(keys, d.n/2)) / 2
}

// distinct reports how many distinct values the distribution holds — the
// quantity that bounds its memory, independent of how many samples fed it.
func (d *countingDist) distinct() int { return len(d.counts) }

// cellAggregator streams one grid cell's samples into a table row.
type cellAggregator struct {
	mu sync.Mutex
	n  uint64

	partA, partB, total    *countingDist
	cBytes, sBytes         *countingDist
	cPkts, sPkts           *countingDist
	cycleSum, cCPU, sCPU   time.Duration
	clientProf, serverProf *perf.Profiler
}

func newCellAggregator(profile bool) *cellAggregator {
	a := &cellAggregator{
		partA: newCountingDist(), partB: newCountingDist(), total: newCountingDist(),
		cBytes: newCountingDist(), sBytes: newCountingDist(),
		cPkts: newCountingDist(), sPkts: newCountingDist(),
	}
	if profile {
		a.clientProf = perf.NewProfiler()
		a.serverProf = perf.NewProfiler()
	}
	return a
}

// add folds one sample into the cell and releases it: nothing per-sample is
// retained. Safe for concurrent use by the grid's worker pool; profiler
// merging commutes (span-wise addition), so arrival order is irrelevant.
func (a *cellAggregator) add(s *sampleResult) {
	a.mu.Lock()
	defer a.mu.Unlock()
	res := s.res
	a.n++
	a.partA.add(res.Phases.PartA)
	a.partB.add(res.Phases.PartB)
	a.total.add(res.Phases.Total())
	a.cBytes.add(time.Duration(res.ClientBytes))
	a.sBytes.add(time.Duration(res.ServerBytes))
	a.cPkts.add(time.Duration(res.ClientPackets))
	a.sPkts.add(time.Duration(res.ServerPackets))
	a.cycleSum += res.Cycle
	a.cCPU += res.ClientCPU
	a.sCPU += res.ServerCPU
	if a.clientProf != nil {
		a.clientProf.Merge(s.clientProf)
		a.serverProf.Merge(s.serverProf)
	}
}

// finalize produces the row. It mirrors aggregateCampaign exactly: medians
// by order statistic, CPU means over opts.Samples, and the 60-second
// extrapolation from the mean cycle.
func (a *cellAggregator) finalize(opts CampaignOptions) *CampaignResult {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := &CampaignResult{
		KEM: opts.KEM, Sig: opts.Sig, Link: opts.Link.Name, Samples: opts.Samples,
		PartAMedian:   a.partA.median(),
		PartBMedian:   a.partB.median(),
		TotalMedian:   a.total.median(),
		ClientBytes:   int(a.cBytes.median()),
		ServerBytes:   int(a.sBytes.median()),
		ClientPackets: int(a.cPkts.median()),
		ServerPackets: int(a.sPkts.median()),
		ClientCPU:     a.cCPU / time.Duration(opts.Samples),
		ServerCPU:     a.sCPU / time.Duration(opts.Samples),
	}
	if a.n > 0 {
		if meanCycle := a.cycleSum / time.Duration(a.n); meanCycle > 0 {
			out.Handshakes60s = int(MeasurementPeriod / meanCycle)
		}
	}
	if a.clientProf != nil {
		out.ClientProfile = a.clientProf.Snapshot()
		out.ServerProfile = a.serverProf.Snapshot()
	}
	return out
}

// maxDistinct reports the largest distinct-value count across the cell's
// distributions — the memory bound tests pin this, not the sample count.
func (a *cellAggregator) maxDistinct() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	m := 0
	for _, d := range []*countingDist{a.partA, a.partB, a.total, a.cBytes, a.sBytes, a.cPkts, a.sPkts} {
		if d.distinct() > m {
			m = d.distinct()
		}
	}
	return m
}
