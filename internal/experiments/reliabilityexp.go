package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/ecc"
	"repro/internal/reliability"
	"repro/internal/report"
)

// Fig9Result reproduces Figure 9.
type Fig9Result struct {
	Points []reliability.CurvePoint
}

// Fig9 sweeps R = 1..16 at K = 256. The Monte-Carlo points are
// bit-reproducible from opts.Seed alone: the explicit worker count
// only sets the fan-out, never the tallies.
func Fig9(opts Options) (Fig9Result, error) {
	opts = opts.fill()
	pts, err := reliability.SDCCurveWorkers(256, 16, opts.RandomTrials, opts.Seed, opts.Parallelism)
	if err != nil {
		return Fig9Result{}, err
	}
	return Fig9Result{Points: pts}, nil
}

// Fig9CI is the high-trial Figure 9 mode enabled by the bitsliced
// injector: the same R = 1..16 sweep at K = 256 with opts.CITrials
// random injections per point, reported with 95% Wilson score bounds —
// turning "matches the trend" into "matches with tight confidence
// intervals".
func Fig9CI(opts Options) (Fig9Result, error) {
	opts = opts.fill()
	pts, err := reliability.SDCCurveWorkers(256, 16, opts.CITrials, opts.Seed, opts.Parallelism)
	if err != nil {
		return Fig9Result{}, err
	}
	return Fig9Result{Points: pts}, nil
}

// CITable renders the sweep with its Wilson bounds and the analytic
// value, flagging points whose interval misses the closed form.
func (r Fig9Result) CITable() report.Table {
	t := report.Table{
		Title:  "Figure 9 (high-trial): SDC probability with 95% Wilson bounds (K=256)",
		Header: []string{"R", "code", "trials", "random SDC", "95% lo", "95% hi", "analytic", "analytic in CI"},
	}
	for _, p := range r.Points {
		analytic := reliability.AnalyticRandomSDC(256, p.R, p.Kind)
		inCI := "yes"
		if analytic < p.RandomSDCLow || analytic > p.RandomSDCHigh {
			inCI = "NO"
		}
		t.AddRow(fmt.Sprint(p.R), p.Kind.String(), fmt.Sprint(p.RandomTrials),
			report.Pct(p.RandomSDC, 4),
			report.Pct(p.RandomSDCLow, 4),
			report.Pct(p.RandomSDCHigh, 4),
			report.Pct(analytic, 4),
			inCI)
	}
	return t
}

// Table renders the three series.
func (r Fig9Result) Table() report.Table {
	t := report.Table{
		Title:  "Figure 9: SDC probability vs number of check bits (K=256)",
		Header: []string{"R", "code", "random SDC", "random SDC (analytic)", "3b SDC"},
	}
	for _, p := range r.Points {
		three := "-"
		if p.HasThreeBit {
			three = report.Pct(p.ThreeBitSDC, 2)
		}
		t.AddRow(fmt.Sprint(p.R), p.Kind.String(),
			report.Pct(p.RandomSDC, 3),
			report.Pct(reliability.AnalyticRandomSDC(256, p.R, p.Kind), 3),
			three)
	}
	return t
}

// Table2Row is one error-pattern row for one IMT configuration.
type Table2Row struct {
	Pattern string
	Tally   reliability.Tally
	// Sampled marks rows estimated from sampling rather than exhaustive
	// enumeration.
	Sampled bool
}

// Table2Result reproduces Table 2 for IMT-10 and IMT-16.
type Table2Result struct {
	Configs []Table2Config
}

// Table2Config holds the per-pattern behavior of one code.
type Table2Config struct {
	Name string
	R    int
	TS   int
	Rows []Table2Row
}

// Table2 runs the §5.3 injection campaigns: tag corruptions, exhaustive
// 1–4-bit data errors, and random corruption.
func Table2(opts Options) (Table2Result, error) {
	opts = opts.fill()
	var res Table2Result
	for _, cfg := range []struct {
		name  string
		r, ts int
	}{{"IMT-10", 10, 9}, {"IMT-16", 16, 15}} {
		code, err := core.NewCode(256, cfg.r, cfg.ts, core.Options{})
		if err != nil {
			return res, err
		}
		core.MustVerify(code)
		target := reliability.TargetAFT(code)
		c := Table2Config{Name: cfg.name, R: cfg.r, TS: cfg.ts}

		tagLimit := 0 // exhaustive
		if cfg.ts > 12 {
			tagLimit = opts.RandomTrials / 10
		}
		c.Rows = append(c.Rows, Table2Row{
			Pattern: "Tag Corrupt",
			Tally:   reliability.TagCorruptions(code, tagLimit, opts.Seed),
			Sampled: tagLimit > 0,
		})
		for k := 1; k <= 4; k++ {
			tally, err := reliability.ExhaustiveKBit(target, k)
			if err != nil {
				return res, err
			}
			c.Rows = append(c.Rows, Table2Row{Pattern: fmt.Sprintf("%db Data", k), Tally: tally})
		}
		c.Rows = append(c.Rows, Table2Row{
			Pattern: "Rand. Data",
			Tally:   reliability.RandomErrorsParallel(target, opts.RandomTrials, opts.Parallelism, opts.Seed+9),
			Sampled: true,
		})
		res.Configs = append(res.Configs, c)
	}
	return res, nil
}

// Tables renders one table per configuration.
func (r Table2Result) Tables() []report.Table {
	var out []report.Table
	for _, c := range r.Configs {
		t := report.Table{
			Title:  fmt.Sprintf("Table 2: per-error-pattern behavior of AFT-ECC — %s (R=%db, TS=%db)", c.Name, c.R, c.TS),
			Header: []string{"pattern", "CE", "DE", "(of which TMM)", "SDC", "trials"},
		}
		for _, row := range c.Rows {
			trials := fmt.Sprint(row.Tally.Total)
			if row.Sampled {
				trials += " (sampled)"
			}
			t.AddRow(row.Pattern,
				report.Pct(row.Tally.CERate(), 2),
				report.Pct(row.Tally.DERate(), 2),
				report.Pct(row.Tally.TMMRate(), 2),
				report.Pct(row.Tally.SDCRate(), 4),
				trials)
		}
		out = append(out, t)
	}
	return out
}

// StealingRow quantifies one ECC-stealing configuration (the "Added SDC
// Risk" column of Table 1, validated by injection).
type StealingRow struct {
	Name          string
	FullR, Stolen int
	Analytic      float64
	Measured      float64
}

// StealingRisk measures SDC amplification by running random-corruption
// campaigns against the stolen-redundancy codes and comparing with the
// closed form.
func StealingRisk(opts Options) ([]StealingRow, error) {
	opts = opts.fill()
	baseline := func(r int) (float64, error) {
		code, err := ecc.NewHsiao(256, r)
		if err != nil {
			return 0, err
		}
		return reliability.RandomErrorsParallel(reliability.TargetECC(code), opts.RandomTrials, opts.Parallelism, opts.Seed).SDCRate(), nil
	}
	base16, err := baseline(16)
	if err != nil {
		return nil, err
	}
	base10, err := baseline(10)
	if err != nil {
		return nil, err
	}
	rows := []StealingRow{
		{Name: "SPARC ADI (steal 4 of 16)", FullR: 16, Stolen: 4},
		{Name: "Iso-Security-10 (steal 9 of 10)", FullR: 10, Stolen: 9},
		{Name: "Iso-Security-16 (steal 15 of 16)", FullR: 16, Stolen: 15},
	}
	for i := range rows {
		row := &rows[i]
		row.Analytic = reliability.StealingSDCAmplification(256, row.FullR, row.Stolen)
		remaining := row.FullR - row.Stolen
		var stolenSDC float64
		if remaining >= 9 {
			code, err := ecc.NewHsiao(256, remaining)
			if err != nil {
				return nil, err
			}
			stolenSDC = reliability.RandomErrorsParallel(reliability.TargetECC(code), opts.RandomTrials, opts.Parallelism, opts.Seed+int64(i)).SDCRate()
		} else {
			code, err := ecc.NewDetectOnly(256, remaining, opts.Seed)
			if err != nil {
				return nil, err
			}
			if remaining == 1 {
				code = ecc.NewParity(256)
			}
			stolenSDC = reliability.RandomErrorsParallel(reliability.TargetECC(code), opts.RandomTrials, opts.Parallelism, opts.Seed+int64(i)).SDCRate()
		}
		base := base16
		if row.FullR == 10 {
			base = base10
		}
		if base > 0 {
			row.Measured = stolenSDC / base
		}
	}
	return rows, nil
}
