package main

import (
	"fmt"
	"math"
	"time"

	"silofuse/internal/metrics"
	"silofuse/internal/tabular"
)

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the record of one run: what the result file keeps and, cut down
// to four keys, what the last line of standard output says.
type result struct {
	Workload string                 `json:"workload"`
	Seed     int64                  `json:"seed"`
	Trace    int                    `json:"trace"`
	Seconds  float64                `json:"seconds"`
	Env      environment            `json:"env"`
	Correct  bool                   `json:"correct"`
	Attempt  int                    `json:"attempted"`
	Failed   int                    `json:"failed"`
	Failures []string               `json:"failures,omitempty"`
	TimedOut string                 `json:"timed_out,omitempty"`
	Metrics  map[string]metricValue `json:"metrics"`
	// Info holds numbers worth keeping that are not gated metrics: operation
	// counts, tail latencies, losses.
	Info  map[string]float64 `json:"info,omitempty"`
	Spans []span             `json:"spans,omitempty"`
}

// checker counts operations and output checks; every one of them is an
// attempt, and fail_ratio is Failed over Attempt.
type checker struct {
	attempted int
	failed    int
	failures  []string
}

func (c *checker) check(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// table checks one returned table: the row count asked for, categorical
// codes inside their cardinality, and no NaN or Inf cell.
func (c *checker) table(what string, t *tabular.Table, rows int) {
	c.check(t.Rows() == rows, "%s: %d rows returned, %d requested", what, t.Rows(), rows)
	codesOK, finite := true, true
	for i := 0; i < t.Rows(); i++ {
		row := t.Data.Row(i)
		for j, col := range t.Schema.Columns {
			v := row[j]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				finite = false
			} else if col.Kind == tabular.Categorical && (v < 0 || v >= float64(col.Cardinality) || v != math.Trunc(v)) { //silofuse:bitwise-ok a category code is an exact integer
				codesOK = false
			}
		}
	}
	c.check(codesOK, "%s: categorical code outside its cardinality", what)
	c.check(finite, "%s: NaN or Inf cell", what)
}

// guardFn runs one operation under the watchdog.
type guardFn func(op string, fn func() error) error

// runEndToEnd is the untraced run: no tracer, no Recorder. It sets the
// workload up w.setups times, repeats the timed operation for the given
// number of seconds, checks every output and scores the reference draw.
// Times are reported at reference speed (speed.go).
func runEndToEnd(w workload, seed int64, seconds float64, guard guardFn) (*result, error) {
	res := &result{Workload: w.Name, Seed: seed, Seconds: seconds, Info: map[string]float64{}}
	c := &checker{}

	var s *session
	var setups, rawSetups []time.Duration
	before := quietSpeedSample(0)
	for i := 0; i < w.setups; i++ {
		if s != nil {
			s.close()
		}
		t0 := time.Now()
		err := guard("set-up", func() (err error) { s, err = setUp(w, seed); return })
		wall := time.Since(t0)
		if err != nil {
			return nil, err
		}
		after := quietSpeedSample(wall)
		rawSetups = append(rawSetups, wall)
		setups = append(setups, atReferenceSpeed(wall, before, after))
		before = after
	}
	defer s.close()

	// A synthesis workload draws its reference rows before the timed loop
	// and a training workload after it (from the first timed fit), so the
	// draw never depends on how many operations the loop got through.
	var ref opResult
	drawRef := func() error {
		return guard("reference draw", func() (err error) { ref, err = s.request(w.resRows); return })
	}
	if !w.timeFits {
		if err := drawRef(); err != nil {
			return nil, err
		}
	}

	// The timed section. Only the API call itself is on the clock (opResult
	// .wall); the fingerprints, the kernel runs and the checks sit between
	// operations, and each operation is scaled by the kernel runs either
	// side of it. Another operation starts only while a typical one still
	// fits in the budget. Fits are followed by a collection (see
	// quietSpeedSample), so each starts from a collected heap and the memory
	// high-water mark is that of one fit; requests run back to back with the
	// collector left alone, so its cost stays in their times.
	sample := speedSample
	if w.timeFits {
		sample = quietSpeedSample
	}
	var ops []opResult
	var raw, atRef, kernels []time.Duration
	var busy time.Duration
	before = sample(0)
	for len(ops) < w.minOps || (busy+medianDuration(raw)).Seconds() <= seconds {
		var r opResult
		err := guard(w.opName(), func() (err error) {
			if w.timeFits {
				r, err = s.fit()
			} else {
				r, err = s.request(w.sampleRows)
			}
			return
		})
		if err == nil {
			err = r.fingerprint()
		}
		after := sample(r.wall)
		c.check(err == nil, "%s %d: %v", w.opName(), len(ops), err)
		if err != nil {
			break
		}
		ops = append(ops, r)
		raw = append(raw, r.wall)
		atRef = append(atRef, atReferenceSpeed(r.wall, before, after))
		kernels = append(kernels, (before+after)/2)
		busy += r.wall
		before = after
	}
	if len(ops) == 0 {
		return nil, fmt.Errorf("%s: no operation succeeded: %v", w.Name, c.failures)
	}

	rows := 0
	var busyAtRef time.Duration
	for i, r := range ops {
		rows += r.rows
		busyAtRef += atRef[i]
		c.check(!math.IsNaN(r.loss) && !math.IsInf(r.loss, 0), "%s %d: loss %v", w.opName(), i, r.loss)
		c.check(r.wire == ops[0].wire, "%s %d: moved %d bytes, the first moved %d", w.opName(), i, r.wire, ops[0].wire)
		if w.timeFits {
			// Fresh fits from one seed must end in the same weights.
			c.check(r.print == ops[0].print, "fit %d: model state differs from the first fit's", i)
		} else {
			c.table(fmt.Sprintf("request %d", i), r.table, w.sampleRows)
		}
	}

	if w.timeFits {
		if err := drawRef(); err != nil {
			return nil, err
		}
	}
	c.table("reference draw", ref.table, w.resRows)
	rep, err := metrics.Resemblance(s.table, ref.table, w.resemblanceConfig())
	if err != nil {
		return nil, err
	}

	res.Metrics = map[string]metricValue{
		"setup_s":     {medianDuration(setups).Seconds(), "s"},
		"rows_per_s":  {float64(rows) / busyAtRef.Seconds(), "rows/s"},
		"op_ms_p50":   {median(msOf(atRef)), "ms"},
		"wire_bytes":  {float64(ops[0].wire), "bytes"},
		"resemblance": {rep.Score, "score"},
		"peak_rss_mb": {peakRSSMB(), "MB"},
	}
	res.Info["ops"] = float64(len(ops))
	res.Info["machine_speed"] = float64(referenceKernel) / float64(medianDuration(kernels))
	res.Info["raw_setup_s"] = medianDuration(rawSetups).Seconds()
	res.Info["raw_rows_per_s"] = float64(rows) / busy.Seconds()
	res.Info["raw_op_ms_p50"] = median(msOf(raw))
	res.Info["raw_op_ms_max"] = percentile(msOf(raw), 100)
	if len(ops) >= 20 {
		// A p95 means something once ten samples lie beyond it, i.e. from
		// 200 operations; "ops" says how many this one rests on.
		res.Info["op_ms_p95"] = percentile(msOf(atRef), 95)
	}
	res.Info["fail_ratio"] = float64(c.failed) / float64(c.attempted)
	c.into(res)
	return res, nil
}

func (c *checker) into(res *result) {
	res.Correct = c.failed == 0
	res.Attempt, res.Failed, res.Failures = c.attempted, c.failed, c.failures
}

// opName names the timed operation for messages and the watchdog.
func (w workload) opName() string {
	if w.timeFits {
		return "fit"
	}
	return "request"
}
