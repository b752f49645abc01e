package main

import (
	"errors"
	"fmt"
	"io"
	"os"
)

// compareFiles prints, for every workload both result files ran untraced and
// every end-to-end metric, both medians with quartiles, the relative
// difference, the bound and a verdict: "same" (b is no worse than a by more
// than the bound), "worse", or "unresolved" (the run-to-run spread of either
// side is wider than the bound, so the bound cannot be checked). It returns
// 0 when every verdict is "same", 1 otherwise, and 2 when the files cannot
// be compared at all.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, errA := readResultFile(pathA)
	b, errB := readResultFile(pathB)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	return compareResults(w, a, b)
}

func compareResults(w io.Writer, a, b resultFile) int {
	if ea, eb := a.Env.comparable(), b.Env.comparable(); ea != eb {
		fmt.Fprintf(w, "refusing to compare: the environments differ\n  a: %+v\n  b: %+v\n", ea, eb)
		return 2
	}
	fmt.Fprintf(w, "a: commit %s seed %d\nb: commit %s seed %d\n", a.Env.Commit, a.Seed, b.Env.Commit, b.Seed)
	fmt.Fprintf(w, "%-11s %-16s %12s %12s %12s %12s %8s %6s  %s\n",
		"workload", "metric", "a median", "a q1..q3", "b median", "b q1..q3", "b vs a", "bound", "verdict")

	compared, bad := 0, 0
	for _, ra := range a.Workloads {
		rb := b.find(ra.Workload)
		if rb == nil || ra.Traced || rb.Traced {
			continue
		}
		for _, def := range endToEndMetrics {
			ma, mb := ra.metric(def.Name), rb.metric(def.Name)
			if ma == nil || mb == nil {
				continue
			}
			bound := boundFor(ra.Workload, def)
			worse := (mb.Value - ma.Value) / ma.Value
			if def.Better == "higher" {
				worse = -worse
			}
			v := verdict(ma, mb, def.Better, worse, bound)
			fmt.Fprintf(w, "%-11s %-16s %12.6g %12s %12.6g %12s %+7.2f%% %5.0f%%  %s\n",
				ra.Workload, def.Name, ma.Value, spreadText(ma), mb.Value, spreadText(mb), 100*worse, 100*bound, v)
			compared++
			if v != "same" {
				bad++
			}
		}
		v := "same"
		if rb.failedShare() > ra.failedShare() {
			v = "worse"
			bad++
		}
		fmt.Fprintf(w, "%-11s %-16s %12.6g %12s %12.6g %12s %8s %6s  %s\n",
			ra.Workload, "failed_share", ra.failedShare(), "", rb.failedShare(), "", "", "0%", v)
		digest := "identical"
		if ra.Digest != rb.Digest {
			digest = "differs (expected only when the seeds differ or the simulation changed)"
		}
		fmt.Fprintf(w, "%-11s %-16s %s\n", ra.Workload, "output_digest", digest)
	}
	if compared == 0 {
		fmt.Fprintln(w, "refusing to compare: the files share no untraced workload")
		return 2
	}
	if bad > 0 {
		return 1
	}
	return 0
}

func (f resultFile) find(workload string) *workloadResult {
	for _, r := range f.Workloads {
		if r.Workload == workload {
			return r
		}
	}
	return nil
}

// verdict applies the no-regression rule: where either side's spread (the
// distance between its quartiles, as a share of its median) is wider than
// the bound the metric is unresolved — unless every repetition of b reads
// better than every repetition of a.
func verdict(a, b *metric, better string, worse, bound float64) string {
	if relSpread(a) > bound || relSpread(b) > bound {
		if allBetter(a.Samples, b.Samples, better) {
			return "same"
		}
		return "unresolved"
	}
	if worse > bound {
		return "worse"
	}
	return "same"
}

func relSpread(m *metric) float64 {
	if m.Value == 0 {
		return 0
	}
	return (m.Q3 - m.Q1) / m.Value
}

func spreadText(m *metric) string {
	return fmt.Sprintf("%.4g..%.4g", m.Q1, m.Q3)
}

// allBetter reports whether every sample of b beats every sample of a.
func allBetter(a, b []float64, better string) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	sa, sb := sorted(a), sorted(b)
	if better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}
