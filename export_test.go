package deltasigma

// This file opens the sweep's run merging to the external test package,
// which can import internal/scenario's canned campaigns where a test in
// this package could not (scenario imports deltasigma).

// RunEachPoint is Run without merging: every raw grid point goes through
// runPoint in turn, on one goroutine and without a packet pool. Its JSON is
// what Run's must equal.
func (sw Sweep) RunEachPoint() (*CampaignResult, error) { return sw.RunEachPointOn(nil) }

// RunEachPointOn is RunEachPoint with every point on pool, when it is not
// nil: each point runs on the memory the points before it closed.
func (sw Sweep) RunEachPointOn(pool *PacketPool) (*CampaignResult, error) {
	g, err := sw.grid()
	if err != nil {
		return nil, err
	}
	res := &CampaignResult{Name: sw.Name, DurationNs: g.sw.Duration}
	for _, p := range g.points() {
		r, err := g.runPoint(p, pool)
		r.Point = p
		if err != nil {
			r.Error = err.Error()
			res.Failures++
		}
		res.Points = append(res.Points, r)
	}
	return res, nil
}

// DistinctRuns counts the experiments Run simulates for sw.
func (sw Sweep) DistinctRuns() (int, error) {
	g, err := sw.grid()
	if err != nil {
		return 0, err
	}
	n := 0
	for i, o := range g.owners(g.points()) {
		if o == i {
			n++
		}
	}
	return n, nil
}

// SimulateDoomedPackets turns the doomed-packet fast path off (on = true)
// or back on for every experiment built after it, and returns what was
// set before.
func SimulateDoomedPackets(on bool) (was bool) { return simulateDoomed.Swap(on) }

// SetNextSessionID makes id the last session ID issued, so the next
// AddSession issues id+1.
func (e *Experiment) SetNextSessionID(id uint16) { e.nextID = id }
