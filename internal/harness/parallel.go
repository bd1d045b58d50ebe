package harness

import (
	"runtime"
	"sync"
)

// Parallel campaign execution. Campaigns fan individual (suite, sample)
// tasks out across a bounded worker pool; because samples are seeded
// deterministically and the modeled virtual clocks carry no host jitter,
// the aggregated results are byte-identical to a sequential run — workers
// only change wall-clock time, never output.

// DefaultWorkers is the worker count used when Workers is 0: one per
// available CPU.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// forEach runs fn(i) for i in [0, n) across min(workers, n) goroutines and
// returns the error of the lowest index that failed (matching what a
// sequential loop would have reported first). It always waits for all
// spawned work to finish.
func forEach(n, workers int, fn func(i int) error) error {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		errIdx   int
		next     int
	)
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if next >= n || firstErr != nil {
			return 0, false
		}
		i := next
		next++
		return i, true
	}
	fail := func(i int, err error) {
		mu.Lock()
		defer mu.Unlock()
		if firstErr == nil || i < errIdx {
			firstErr, errIdx = err, i
		}
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := take()
				if !ok {
					return
				}
				if err := fn(i); err != nil {
					fail(i, err)
				}
			}
		}()
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	return firstErr
}

// runCampaignGrid executes many campaigns through one flat worker pool:
// every (campaign, sample) pair is one task, so a slow suite (SPHINCS+,
// BIKE) cannot serialize the whole grid behind it. Each sample lands in its
// own slot, and every cell is then folded in sample order, making the
// output identical to running each campaign sequentially.
func runCampaignGrid(specs []CampaignOptions, workers int) ([]*CampaignResult, error) {
	type task struct{ spec, sample int }
	var tasks []task
	samples := make([][]*HandshakeResult, len(specs))
	for si := range specs {
		normalizeCampaign(&specs[si])
		samples[si] = make([]*HandshakeResult, specs[si].Samples)
		for i := range samples[si] {
			tasks = append(tasks, task{spec: si, sample: i})
		}
	}
	err := forEach(len(tasks), workers, func(ti int) error {
		t := tasks[ti]
		res, err := runCampaignSample(specs[t.spec], t.sample)
		samples[t.spec][t.sample] = res
		return err
	})
	if err != nil {
		return nil, err
	}
	out := make([]*CampaignResult, len(specs))
	for si := range specs {
		out[si] = aggregateCampaign(specs[si], samples[si])
	}
	return out, nil
}
