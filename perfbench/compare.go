package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// compareMain compares two result sets (JSON-lines files written with
// --out): for each (workload, metric) it prints both sides' medians and
// quartiles, the delta of the medians, and a verdict. Runs are paired by
// seed. A side is "better" only when it wins at least 9 of every 10 pairs
// (ties counting for neither) and the medians differ by more than A's own
// quartile spread; "worse" is the mirror; anything else, and any workload
// on which B failed more operations than A, is "unresolved".
func compareMain(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare <before.jsonl> <after.jsonl>")
		return 2
	}
	a, err := readRecords(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	b, err := readRecords(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	rows, err := compareRecords(a, b)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, row := range rows {
		fmt.Fprintln(w, row)
	}
	return 0
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// runKey identifies one run within a result set.
type runKey struct {
	workload string
	trace    int
	seed     int64
}

// indexRuns keys a result set's records by run, refusing a run recorded
// twice.
func indexRuns(rs []record) (map[runKey]record, error) {
	m := make(map[runKey]record, len(rs))
	for _, r := range rs {
		k := runKey{r.Workload, r.Trace, r.Seed}
		if _, dup := m[k]; dup {
			return nil, fmt.Errorf("%s seed %d trace %d recorded twice in one set", r.Workload, r.Seed, r.Trace)
		}
		m[k] = r
	}
	return m, nil
}

// compareRecords renders one row per (workload, metric) measured on both
// sides, in workload then metric order. Only runs of a seed present on
// both sides take part, and both runs of a pair must have measured for
// the same number of seconds.
func compareRecords(a, b []record) ([]string, error) {
	ia, err := indexRuns(a)
	if err != nil {
		return nil, err
	}
	ib, err := indexRuns(b)
	if err != nil {
		return nil, err
	}
	type key struct{ workload, metric string }
	var runs []runKey
	for k, ra := range ia {
		rb, ok := ib[k]
		if !ok {
			continue
		}
		if ra.Seconds != rb.Seconds {
			return nil, fmt.Errorf("%s seed %d ran %g s in A but %g s in B", k.workload, k.seed, ra.Seconds, rb.Seconds)
		}
		runs = append(runs, k)
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].seed < runs[j].seed })
	xs, ys := map[key][]float64{}, map[key][]float64{}
	failsA, failsB := map[string]int{}, map[string]int{}
	for _, k := range runs {
		ra, rb := ia[k], ib[k]
		failsA[k.workload] += ra.Failed
		failsB[k.workload] += rb.Failed
		for name, va := range ra.Metrics {
			if vb, ok := rb.Metrics[name]; ok {
				mk := key{k.workload, name}
				xs[mk] = append(xs[mk], va.Value)
				ys[mk] = append(ys[mk], vb.Value)
			}
		}
	}
	var keys []key
	for k := range xs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	rows := []string{fmt.Sprintf("%-26s %-34s %12s %12s %12s %12s %12s %12s %8s  %s",
		"workload", "metric", "A.q1", "A.median", "A.q3", "B.q1", "B.median", "B.q3", "delta", "verdict")}
	for _, k := range keys {
		spec, ok := lookupSpec(k.metric)
		if !ok {
			continue
		}
		x, y := xs[k], ys[k]
		a1, am, a3 := quartiles(x)
		b1, bm, b3 := quartiles(y)
		delta := math.NaN()
		if am != 0 {
			delta = (bm - am) / math.Abs(am)
		}
		v := verdict(x, y, !spec.higher)
		if fa, fb := failsA[k.workload], failsB[k.workload]; fb > fa {
			v = fmt.Sprintf("unresolved (B failed %d operations, A %d)", fb, fa)
		}
		rows = append(rows, fmt.Sprintf("%-26s %-34s %12.6g %12.6g %12.6g %12.6g %12.6g %12.6g %+7.2f%%  %s",
			k.workload, k.metric, a1, am, a3, b1, bm, b3, 100*delta, v))
	}
	return rows, nil
}

// verdict applies the pairs rule to paired values (a[i] and b[i] come
// from the same seed): B is better when it wins at least 9/10 of the pairs
// and its median beats A's by more than A's quartile spread.
func verdict(a, b []float64, lower bool) string {
	pairs := len(a)
	if pairs == 0 || len(b) != pairs {
		return "unresolved (no pairs)"
	}
	winsB, winsA := 0, 0
	for i := range pairs {
		switch {
		case a[i] == b[i]:
		case (b[i] < a[i]) == lower:
			winsB++
		default:
			winsA++
		}
	}
	q1, am, q3 := quartiles(a)
	_, bm, _ := quartiles(b)
	spread := q3 - q1
	need := int(math.Ceil(0.9 * float64(pairs)))
	switch {
	case winsB >= need && math.Abs(bm-am) > spread:
		return fmt.Sprintf("better (B won %d/%d pairs)", winsB, pairs)
	case winsA >= need && math.Abs(bm-am) > spread:
		return fmt.Sprintf("worse (A won %d/%d pairs)", winsA, pairs)
	}
	return fmt.Sprintf("unresolved (B won %d, A won %d of %d pairs)", winsB, winsA, pairs)
}
