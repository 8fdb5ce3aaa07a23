package main

import (
	"math"
	"sync"
	"time"
)

// referenceCalibration is the calibration loop's lower quartile on the
// baseline host (2 vCPU Xeon, Go 1.24) while the host is undisturbed.
// End-to-end times are scaled by it over the run's lower quartile, so
// they read as seconds at the baseline host's undisturbed speed.
const referenceCalibration = 91 * time.Millisecond

// The calibration loop's shape: steps per goroutine and its tag array,
// 8192 sets of 8 ways (512 KB).
const (
	calibrationSteps = 4_000_000
	calibrationSets  = 8192
	calibrationWays  = 8
)

// calibrator measures how fast the host runs right now. The host is
// shared: other tenants can slow it by up to half for minutes, and then
// every process slows — ntcsim's CPU time doubles along with its wall
// time — which no statistic over one run's repetitions removes. A fixed
// loop shaped like ntcsim's hot path, timed between repetitions, slows
// down with them, and dividing by it removes most of the host's speed
// from the end-to-end metrics. The loop draws geometric address strides
// through math.Log and looks each address up in a set-associative tag
// array, on as many goroutines as the simulation has workers. It tracked
// ntcsim better than a pure compute loop, which other tenants sharing a
// core slow by twice as much as they slow ntcsim. The loop is the
// harness's own code, so no change to ntcsim moves it.
type calibrator struct {
	tags [jobs][]uint64
	sink uint64
}

func newCalibrator() *calibrator {
	c := &calibrator{}
	for i := range c.tags {
		c.tags[i] = make([]uint64, calibrationSets*calibrationWays)
	}
	return c
}

// run times one calibration.
func (c *calibrator) run() time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	hits := make([]uint64, len(c.tags))
	for g := range c.tags {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			hits[g] = lookups(c.tags[g], uint64(g+7))
		}(g)
	}
	wg.Wait()
	for _, h := range hits {
		c.sink += h // keeps the loop from being optimised away
	}
	return time.Since(start)
}

// lookups runs calibrationSteps tag lookups from seed and returns the
// number of hits.
func lookups(tags []uint64, seed uint64) uint64 {
	logq := math.Log(0.97)
	x, addr, hits := seed, uint64(0), uint64(0)
	for i := 0; i < calibrationSteps; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		if x>>60 == 0 {
			addr = x >> 20 // an occasional jump to a new region
		}
		u := float64(x>>11)/(1<<53) + 1e-12
		addr += uint64(math.Log(u)/logq) * 64
		set := (addr >> 6) % calibrationSets
		tag := addr >> 19
		ways := tags[set*calibrationWays : (set+1)*calibrationWays]
		hit := false
		for _, t := range ways {
			if t == tag {
				hit = true
				break
			}
		}
		if hit {
			hits++
		} else {
			ways[(x>>40)%calibrationWays] = tag
		}
	}
	return hits
}
