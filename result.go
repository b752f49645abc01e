package deltasigma

// resultWindow is the moving-average window (in one-second bins) applied
// to result time series, matching the paper's 5-second smoothing.
const resultWindow = 5

// ReceiverResult is one receiver's view of a run.
type ReceiverResult struct {
	// Session and Index locate the receiver (both 1-based).
	Session int `json:"session"`
	Index   int `json:"index"`
	// Label is S<session>R<index>, suffixed for attackers.
	Label string `json:"label"`
	// Attacker marks receivers added with AddAttacker.
	Attacker bool `json:"attacker,omitempty"`
	// Level is the subscription level (replicated: group) at run end.
	Level int `json:"level"`
	// AvgKbps is the delivered throughput averaged over the whole run.
	AvgKbps float64 `json:"avg_kbps"`
	// Series is the smoothed per-second throughput time series.
	Series []Point `json:"series,omitempty"`
}

// CohortResult is one aggregated receiver population's view of a run.
type CohortResult struct {
	// Session and Index locate the cohort (both 1-based).
	Session int `json:"session"`
	Index   int `json:"index"`
	// Label is S<session>C<index>.
	Label string `json:"label"`
	// Members is the configured population size; Online how many were
	// joined at run end.
	Members uint64 `json:"members"`
	Online  uint64 `json:"online"`
	// Level is the highest occupied subscription level at run end.
	Level int `json:"level"`
	// MeanLevel is the population-average subscription level at run end,
	// offline members counting as level 0.
	MeanLevel float64 `json:"mean_level"`
	// Levels is the member count per level; index 0 holds offline members.
	Levels []uint64 `json:"levels"`
	// AvgKbps is the aggregate delivered throughput (summed across
	// members) averaged over the whole run; PerMemberKbps divides it by
	// the population.
	AvgKbps       float64 `json:"avg_kbps"`
	PerMemberKbps float64 `json:"per_member_kbps"`
	// Series is the smoothed aggregate throughput time series.
	Series []Point `json:"series,omitempty"`
}

// CrossResult is one cross-traffic flow's view of a run.
type CrossResult struct {
	// Label is tcp<n> or cbr<n>.
	Label string `json:"label"`
	// AvgKbps is the delivered throughput averaged over the whole run.
	AvgKbps float64 `json:"avg_kbps"`
	// Series is the smoothed per-second throughput time series.
	Series []Point `json:"series,omitempty"`
}

// LinkResult is one bottleneck link's view of a run.
type LinkResult struct {
	// Label names the link (upstream->downstream).
	Label string `json:"label"`
	// CapacityBps is the link rate in bits/s.
	CapacityBps int64 `json:"capacity_bps"`
	// Utilization is delivered bits over capacity·duration, in [0,1].
	Utilization float64 `json:"utilization"`
	// SentBytes counts bytes that completed serialization.
	SentBytes uint64 `json:"sent_bytes"`
	// Delivered counts packets handed to the downstream node.
	Delivered uint64 `json:"delivered"`
	// Dropped counts drop-tail losses at the link queue.
	Dropped uint64 `json:"dropped"`
	// DroppedDown counts packets destroyed by link outages (arrivals
	// while down plus packets flushed by the down transition).
	DroppedDown uint64 `json:"dropped_down,omitempty"`
	// Marked counts ECN CE marks at the link queue.
	Marked uint64 `json:"marked"`
}

// Result is the typed outcome of Run: everything measured from virtual
// time zero to Until.
type Result struct {
	// Protocol is the variant's registry name.
	Protocol string `json:"protocol"`
	// Until is the virtual end time of the run.
	Until Time `json:"until"`
	// Seconds is Until in seconds, for human-facing output.
	Seconds float64 `json:"seconds"`
	// Receivers holds one entry per multicast receiver, session by
	// session in attachment order, attackers included.
	Receivers []ReceiverResult `json:"receivers"`
	// Cohorts holds one entry per aggregated receiver population, session
	// by session in attachment order.
	Cohorts []CohortResult `json:"cohorts,omitempty"`
	// Cross holds one entry per TCP flow, then per CBR source.
	Cross []CrossResult `json:"cross,omitempty"`
	// Bottlenecks holds one entry per congested link.
	Bottlenecks []LinkResult `json:"bottlenecks"`
	// LostPackets totals packets lost at the bottlenecks: drop-tail drops
	// plus outage (down-link) discards.
	LostPackets uint64 `json:"lost_packets"`
	// Sharding describes sharded execution when WithShards was given (nil
	// otherwise): shard count, migrated hosts, per-shard event counts,
	// barrier waits and mailbox high-water marks. Wall-clock fields vary
	// run to run; every other Result field is byte-identical whatever the
	// shard count.
	Sharding *ShardingResult `json:"sharding,omitempty"`
}

// Receiver returns the result entry for session s, receiver i (both
// 1-based), or nil.
func (r *Result) Receiver(s, i int) *ReceiverResult {
	for k := range r.Receivers {
		if r.Receivers[k].Session == s && r.Receivers[k].Index == i {
			return &r.Receivers[k]
		}
	}
	return nil
}

// Cohort returns the result entry for session s, cohort i (both 1-based),
// or nil.
func (r *Result) Cohort(s, i int) *CohortResult {
	for k := range r.Cohorts {
		if r.Cohorts[k].Session == s && r.Cohorts[k].Index == i {
			return &r.Cohorts[k]
		}
	}
	return nil
}

// Utilization returns the mean utilization across the bottlenecks.
func (r *Result) Utilization() float64 {
	if len(r.Bottlenecks) == 0 {
		return 0
	}
	var sum float64
	for _, l := range r.Bottlenecks {
		sum += l.Utilization
	}
	return sum / float64(len(r.Bottlenecks))
}

// result snapshots the experiment state into a Result.
func (e *Experiment) result(until Time) *Result {
	res := &Result{
		Protocol: e.Protocol.Name(),
		Until:    until,
		Seconds:  until.Sec(),
	}
	for _, s := range e.sessions {
		for _, r := range s.Receivers {
			res.Receivers = append(res.Receivers, ReceiverResult{
				Session:  r.session,
				Index:    r.index,
				Label:    r.Label(),
				Attacker: r.Attacker(),
				Level:    r.Level(),
				AvgKbps:  r.Meter().AvgKbps(0, until),
				Series:   r.Meter().Series(resultWindow),
			})
		}
	}
	for _, s := range e.sessions {
		for _, c := range s.Cohorts {
			avg := c.Meter().AvgKbps(0, until)
			res.Cohorts = append(res.Cohorts, CohortResult{
				Session:       c.session,
				Index:         c.index,
				Label:         c.Label(),
				Members:       c.Members(),
				Online:        c.Online(),
				Level:         c.Level(),
				MeanLevel:     c.MeanLevel(),
				Levels:        c.Levels(),
				AvgKbps:       avg,
				PerMemberKbps: avg / float64(c.Members()),
				Series:        c.Meter().Series(resultWindow),
			})
		}
	}
	for _, f := range e.tcps {
		res.Cross = append(res.Cross, CrossResult{
			Label:   f.Label(),
			AvgKbps: f.Meter().AvgKbps(0, until),
			Series:  f.Meter().Series(resultWindow),
		})
	}
	for _, c := range e.cbrs {
		res.Cross = append(res.Cross, CrossResult{
			Label:   c.Label(),
			AvgKbps: c.Meter().AvgKbps(0, until),
			Series:  c.Meter().Series(resultWindow),
		})
	}
	for _, l := range e.Topo.Bottlenecks() {
		lr := LinkResult{
			Label:       l.String(),
			CapacityBps: l.Rate,
			SentBytes:   l.SentBytes,
			Delivered:   l.Delivered,
			Dropped:     l.Queue.Dropped,
			DroppedDown: l.DroppedDown,
			Marked:      l.Queue.Marked,
		}
		// The capacity integral (rate over up-time) keeps utilization
		// truthful when the link was re-rated, downed or flapped mid-run.
		if capBits := l.CapacityBits(); capBits > 0 {
			lr.Utilization = float64(lr.SentBytes) * 8 / capBits
		}
		res.Bottlenecks = append(res.Bottlenecks, lr)
		res.LostPackets += lr.Dropped + lr.DroppedDown
	}
	res.Sharding = e.shardingResult()
	return res
}
