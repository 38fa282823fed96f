// Command soundcheck evaluates a sanity constraint over one or two CSV
// data series from the command line, with SOUND's quality-aware
// evaluation or the naive baseline.
//
// CSV layout: t,v[,sig_up[,sig_down]] with an optional header row.
//
// Examples:
//
//	soundcheck -constraint range -min 0 -max 100 series.csv
//	soundcheck -constraint monotonic -window count:10 work.csv
//	soundcheck -constraint corr -threshold 0.2 -window time:30 a.csv b.csv
//	soundcheck -constraint range -min 0 -max 1 -naive normalized.csv
//	soundcheck -constraint gt -threshold 10 -window time:20 -explain series.csv
//
// Streaming replays can be checkpointed and resumed: -checkpoint FILE
// snapshots the full operator state every -checkpoint-every events at a
// quiescent stream barrier, and -restore FILE resumes a killed replay
// from the snapshot, producing outcome counts bit-identical to an
// uninterrupted run:
//
//	soundcheck -stream -checkpoint state.ckp -checkpoint-every 1000 \
//	    -constraint fraction -min 0 -max 13 -threshold 0.8 -window time:12:5 series.csv
//	# ... killed mid-stream; resume:
//	soundcheck -stream -restore state.ckp \
//	    -constraint fraction -min 0 -max 13 -threshold 0.8 -window time:12:5 series.csv
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"sound"
	"sound/internal/checker"
	"sound/internal/checkpoint"
	"sound/internal/ingest"
	"sound/internal/series"
	"sound/internal/stream"
	"sound/internal/wire"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the tool; exit code 0 = no violations, 2 = violations
// found, 1 = usage or input error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("soundcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		constraint = fs.String("constraint", "range", "constraint template: range, gt, nonneg, fraction, monotonic, maxdelta, stdnonzero, corr, nocorr, r2, ks, count")
		minV       = fs.Float64("min", 0, "lower bound (range, fraction)")
		maxV       = fs.Float64("max", 1, "upper bound (range, fraction)")
		threshold  = fs.Float64("threshold", 0.2, "threshold (gt, fraction, maxdelta, corr, nocorr, r2, ks)")
		window     = fs.String("window", "point", "windowing: point, global, session:<gap>, time:<size>[:<slide>], count:<size>[:<slide>]")
		cred       = fs.Float64("c", 0.95, "credibility level c")
		maxSamples = fs.Int("n", 100, "maximum sample size N")
		seed       = fs.Uint64("seed", 1, "deterministic seed")
		naive      = fs.Bool("naive", false, "use the naive (quality-ignorant) evaluation")
		streaming  = fs.Bool("stream", false, "replay the series through the streaming engine and evaluate the check online (summary only)")
		ckptPath   = fs.String("checkpoint", "", "with -stream: snapshot operator state to this file every -checkpoint-every events")
		ckptEvery  = fs.Int("checkpoint-every", 1000, "events between checkpoints (with -checkpoint)")
		restore    = fs.String("restore", "", "with -stream: resume the replay from this snapshot file")
		explain    = fs.Bool("explain", false, "run the violation analysis (change points, explanations E1-E6) on the results")
		verbose    = fs.Bool("v", false, "print every window outcome, not just the summary")
	)
	if err := fs.Parse(args); err != nil {
		return 1
	}

	c, arity, err := buildConstraint(*constraint, *minV, *maxV, *threshold)
	if err != nil {
		return fail(stderr, err)
	}
	if fs.NArg() != arity {
		return fail(stderr, fmt.Errorf("constraint %q needs %d series file(s), got %d", *constraint, arity, fs.NArg()))
	}
	// Batch evaluation needs whole series in memory; the streaming replay
	// reads the files incrementally inside runStream (O(window) memory).
	var ss []sound.Series
	if !*streaming {
		for _, path := range fs.Args() {
			f, err := os.Open(path)
			if err != nil {
				return fail(stderr, err)
			}
			s, err := sound.ReadCSV(f)
			f.Close()
			if err != nil {
				return fail(stderr, fmt.Errorf("%s: %w", path, err))
			}
			ss = append(ss, s)
		}
	}

	win, err := buildWindow(*window)
	if err != nil {
		return fail(stderr, err)
	}
	check := sound.Check{Name: *constraint, Constraint: c, SeriesNames: fs.Args(), Window: win}

	if *explain && (*naive || *streaming) {
		return fail(stderr, fmt.Errorf("-explain needs the full SOUND evaluation (drop -naive/-stream)"))
	}
	if (*ckptPath != "" || *restore != "") && !*streaming {
		return fail(stderr, fmt.Errorf("-checkpoint/-restore need -stream"))
	}
	if *ckptPath != "" && *ckptEvery <= 0 {
		return fail(stderr, fmt.Errorf("-checkpoint-every %d out of range (want >= 1)", *ckptEvery))
	}

	counts := map[sound.Outcome]int{}
	var results []sound.Result
	if *streaming {
		var err error
		counts, err = runStream(check, fs.Args(), sound.Params{Credibility: *cred, MaxSamples: *maxSamples}, *seed, *naive, *ckptPath, *ckptEvery, *restore)
		if err != nil {
			return fail(stderr, err)
		}
	} else if *naive {
		tuples := win.Windows(ss)
		for _, tuple := range tuples {
			o := sound.EvaluateNaive(c, tuple)
			counts[o]++
			if *verbose {
				fmt.Fprintf(stdout, "window %d [%g, %g): %v\n", tuple.Index, tuple.Start, tuple.End, o)
			}
		}
	} else {
		eval, err := sound.NewEvaluator(sound.Params{Credibility: *cred, MaxSamples: *maxSamples}, *seed)
		if err != nil {
			return fail(stderr, err)
		}
		results, err = check.Run(eval, ss)
		if err != nil {
			return fail(stderr, err)
		}
		for _, r := range results {
			counts[r.Outcome]++
			if *verbose {
				fmt.Fprintf(stdout, "window %d [%g, %g): %v  P(viol)=%.3f  samples=%d\n",
					r.Window.Index, r.Window.Start, r.Window.End, r.Outcome, r.ViolationProb, r.Samples)
			}
		}
	}
	total := counts[sound.Satisfied] + counts[sound.Violated] + counts[sound.Inconclusive]
	fmt.Fprintf(stdout, "%s: %d windows — ⊤ %d, ⊥ %d, ⊣ %d\n",
		check.Name, total, counts[sound.Satisfied], counts[sound.Violated], counts[sound.Inconclusive])
	if *explain {
		params := sound.Params{Credibility: *cred, MaxSamples: *maxSamples}
		a, err := sound.NewAnalyzer(params, *seed)
		if err != nil {
			return fail(stderr, err)
		}
		fmt.Fprint(stdout, sound.Summarize(check, results, a, nil, *cred).String())
	}
	if counts[sound.Violated] > 0 {
		return 2
	}
	return 0
}

func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "soundcheck:", err)
	return 1
}

// csvCursor streams one CSV file one point at a time through the
// wire.CSVScanner pooled reader, holding O(buffer) memory instead of the
// whole file. The merge in runStream only ever inspects each file's
// head point, so one-point lookahead gives the order a merge of the
// fully read files would. Quoted CSV (which the scanner punts
// on) falls back to sound.ReadCSV: the file is reopened, slurped, and
// the points already emitted are skipped — identical output, the memory
// guarantee degrades to O(file) for that one file.
type csvCursor struct {
	path    string
	f       *os.File
	sc      *wire.CSVScanner
	slurped sound.Series // non-nil after quoted-CSV fallback
	idx     int          // next slurped index
	cur     series.Point
	ok      bool // cur holds an unconsumed point
	emitted int  // points handed out, for the fallback skip
	err     error
}

func newCSVCursor(path string) (*csvCursor, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	cur := &csvCursor{path: path, f: f, sc: wire.NewCSVScanner(f)}
	cur.advance()
	return cur, cur.err
}

// advance loads the next point into cur. On any terminal condition
// (EOF, error) ok stays false and the file is closed.
func (c *csvCursor) advance() {
	if c.err != nil {
		c.ok = false
		return
	}
	if c.slurped != nil {
		if c.idx < len(c.slurped) {
			c.cur, c.ok = c.slurped[c.idx], true
			c.idx++
			c.emitted++
		} else {
			c.ok = false
		}
		return
	}
	p, err := c.sc.Next()
	switch {
	case err == nil:
		c.cur, c.ok = p, true
		c.emitted++
	case err == io.EOF:
		c.ok = false
		c.close()
	case err == wire.ErrQuotedCSV:
		c.fallbackSlurp()
	default:
		c.ok, c.err = false, fmt.Errorf("%s: %w", c.path, err)
		c.close()
	}
}

func (c *csvCursor) fallbackSlurp() {
	c.close()
	f, err := os.Open(c.path)
	if err != nil {
		c.ok, c.err = false, err
		return
	}
	s, err := sound.ReadCSV(f)
	f.Close()
	if err != nil {
		c.ok, c.err = false, fmt.Errorf("%s: %w", c.path, err)
		return
	}
	c.slurped, c.idx = s, c.emitted
	c.advance()
}

func (c *csvCursor) close() {
	if c.f != nil {
		c.f.Close()
		c.f = nil
	}
}

// runStream replays the series through the dataflow engine and evaluates
// the check with the generic online stream operator: events from all
// input files are merged in time order into one source, keyed by file
// path, and routed to the check inputs by key. The files are streamed —
// memory stays O(window), not O(file) — and the outcome counts match
// what the check's windows produce online.
//
// With ckptPath the source requests a drain-to-barrier snapshot every
// `every` events and atomically writes the operator state plus the
// replay offset; with restorePath the state is loaded back, the first
// offset events are skipped, and the resumed replay is bit-identical to
// an uninterrupted one.
func runStream(check sound.Check, paths []string, params sound.Params, seed uint64, naive bool, ckptPath string, every int, restorePath string) (map[sound.Outcome]int, error) {
	out := &checker.StreamOutcomes{}
	cfg := checker.StreamCheck{
		Check:   check,
		Params:  params,
		Seed:    seed,
		Naive:   naive,
		Forward: true,
		Out:     out,
		Route:   checker.ByInputKeys(check.SeriesNames...),
	}
	var reg *checker.StreamRegistry
	if ckptPath != "" || restorePath != "" {
		reg = checker.NewStreamRegistry()
		cfg.Registry = reg
	}
	factory, err := checker.NewStreamChecker(cfg)
	if err != nil {
		return nil, err
	}
	fp := streamFingerprint(check, params, seed, naive)
	var offset uint64
	if restorePath != "" {
		data, err := os.ReadFile(restorePath)
		if err != nil {
			return nil, err
		}
		dec, err := checkpoint.NewDecoder(data)
		if err != nil {
			return nil, err
		}
		if got := dec.String(); dec.Err() == nil && got != fp {
			return nil, fmt.Errorf("snapshot %s was written by a different run configuration (%q, this run is %q)", restorePath, got, fp)
		}
		offset = dec.Uvarint()
		if err := reg.DecodeFrom(dec); err != nil {
			return nil, fmt.Errorf("%s: %w", restorePath, err)
		}
	}

	cursors := make([]*csvCursor, len(paths))
	for i, path := range paths {
		cur, err := newCSVCursor(path)
		if err != nil {
			for _, c := range cursors[:i] {
				c.close()
			}
			return nil, err
		}
		cursors[i] = cur
	}

	// Time-ordered merge of the input streams (each cursor exposes its
	// head point); sent counts the logical event position so a restored
	// replay skips what the snapshot run already processed. A cursor
	// that fails mid-file aborts the replay; the error surfaces after
	// the graph stops.
	var snapErr, srcErr error
	replay := func(emit stream.EmitFunc, barrier stream.BarrierFunc) {
		defer func() {
			for _, c := range cursors {
				c.close()
			}
		}()
		var sent uint64
		for {
			best := -1
			for i, c := range cursors {
				if c.ok && (best < 0 || c.cur.T < cursors[best].cur.T) {
					best = i
				}
			}
			if best < 0 {
				return
			}
			p := cursors[best].cur
			cursors[best].advance()
			if err := cursors[best].err; err != nil {
				srcErr = err
				return
			}
			sent++
			if sent <= offset {
				continue
			}
			emit(stream.Event{Time: p.T, Key: check.SeriesNames[best], Value: p.V, SigUp: p.SigUp, SigDown: p.SigDown})
			if ckptPath != "" && every > 0 && sent%uint64(every) == 0 {
				pos := sent
				barrier(func() {
					if err := writeSnapshot(ckptPath, fp, pos, reg); err != nil && snapErr == nil {
						snapErr = err
					}
				})
			}
		}
	}
	g := stream.NewGraph()
	var src *stream.Node
	if reg != nil {
		src = g.AddCheckpointSource("csv", replay)
	} else {
		src = g.AddSource("csv", func(emit stream.EmitFunc) { replay(emit, nil) })
	}
	chk := g.AddOperator("check", 1, factory)
	if err := g.Connect(src, chk); err != nil {
		return nil, err
	}
	if err := g.Connect(chk, g.AddSink("drain", nil)); err != nil {
		return nil, err
	}
	if _, err := g.Run(); err != nil {
		return nil, err
	}
	if srcErr != nil {
		return nil, srcErr
	}
	if snapErr != nil {
		return nil, fmt.Errorf("writing checkpoint: %w", snapErr)
	}
	c := out.Counts()
	return map[sound.Outcome]int{
		sound.Satisfied:    c.Satisfied,
		sound.Violated:     c.Violated,
		sound.Inconclusive: c.Inconclusive,
	}, nil
}

// streamFingerprint identifies a replay configuration: restoring a
// snapshot under different inputs, parameters, or seeds would resume
// into a stream it does not belong to, so the mismatch fails loudly.
func streamFingerprint(check sound.Check, params sound.Params, seed uint64, naive bool) string {
	return fmt.Sprintf("soundcheck|%s|%s|%v|c=%g|n=%d|seed=%d|naive=%t|%s",
		check.Name, check.Window, check.Constraint.Granularity, params.Credibility,
		params.MaxSamples, seed, naive, strings.Join(check.SeriesNames, ","))
}

// writeSnapshot persists one barrier snapshot: fingerprint, replay
// offset, and the registry payload, written to a temp file that is
// synced before it is renamed over the previous snapshot, so a crash or
// a failed write at any point leaves the previous snapshot intact.
func writeSnapshot(path, fp string, offset uint64, reg *checker.StreamRegistry) error {
	enc := checkpoint.NewEncoder()
	enc.String(fp)
	enc.Uvarint(offset)
	reg.EncodeTo(enc)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(enc.Finish())
	if err == nil {
		// Rename is atomic but orders nothing: without the sync a crash
		// could publish the new name over unwritten blocks.
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp) // best effort: the error that matters is err
		return err
	}
	return os.Rename(tmp, path)
}

// buildConstraint and buildWindow delegate to internal/ingest so
// soundcheck and soundserve resolve the same template and window
// vocabulary from one implementation.
func buildConstraint(name string, min, max, threshold float64) (sound.Constraint, int, error) {
	return ingest.BuildConstraint(name, min, max, threshold)
}

func buildWindow(spec string) (sound.Windower, error) {
	return ingest.BuildWindow(spec)
}
