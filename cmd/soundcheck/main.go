// Command soundcheck evaluates one check over CSV data series from the
// command line, with SOUND's quality-aware evaluation or the naive
// baseline. -check takes the spec soundserve -check and POST /checks
// take (ingest.ParseCheck; the default seed is 1), so a soundprofile
// suggestion runs here as printed. The CSV files bind in order to the
// check's inputs: one file for a unary check, one per route=inputs: key
// for a check over k series.
//
// CSV layout: t,v[,sig_up[,sig_down]] with an optional header row.
//
// Examples:
//
//	soundcheck -check 'range;min=0;max=100' series.csv
//	soundcheck -check 'monotonic;window=count:10' work.csv
//	soundcheck -check 'corr;threshold=0.2;window=time:30;route=inputs:a,b' a.csv b.csv
//	soundcheck -check 'range;min=0;max=1' -naive normalized.csv
//	soundcheck -check 'gt;threshold=10;window=time:20' -explain series.csv
//
// -stream registers the check alone with a checker.Mux and hands the
// merged events to one operator of it, the operator a soundserve shard
// runs. Streaming replays can be checkpointed and resumed: -checkpoint
// FILE snapshots the full operator state every -checkpoint-every events,
// between two events handed to the operator, and -restore FILE resumes
// a killed replay from the snapshot, producing outcome counts
// bit-identical to an uninterrupted run. A snapshot taken under another
// check spec, other parameters, -naive or other files is refused:
//
//	soundcheck -stream -checkpoint state.ckp -checkpoint-every 1000 \
//	    -check 'fraction;min=0;max=13;threshold=0.8;window=time:12:5' series.csv
//	# ... killed mid-stream; resume:
//	soundcheck -stream -restore state.ckp \
//	    -check 'fraction;min=0;max=13;threshold=0.8;window=time:12:5' series.csv
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
		spec       = fs.String("check", "", "check spec, as soundserve -check takes it: 'range;min=0;max=100;window=time:60' (seed 1 unless seed= is given); the CSV files bind in order to its inputs")
		cred       = fs.Float64("c", 0.95, "credibility level c")
		maxSamples = fs.Int("n", 100, "maximum sample size N")
		naive      = fs.Bool("naive", false, "use the naive (quality-ignorant) evaluation")
		streaming  = fs.Bool("stream", false, "replay the series through the online check operator (summary only)")
		ckptPath   = fs.String("checkpoint", "", "with -stream: snapshot operator state to this file every -checkpoint-every events")
		ckptEvery  = fs.Int("checkpoint-every", 1000, "events between checkpoints (with -checkpoint)")
		restore    = fs.String("restore", "", "with -stream: resume the replay from this snapshot file")
		explain    = fs.Bool("explain", false, "run the violation analysis (change points, explanations E1-E6) on the results")
		verbose    = fs.Bool("v", false, "print every window outcome, not just the summary")
	)
	if err := fs.Parse(args); err != nil {
		return 1
	}

	params := sound.Params{Credibility: *cred, MaxSamples: *maxSamples}
	cc, err := ingest.ParseCheck(*spec, params, 1, checker.EvictionPolicy{})
	if err != nil {
		return fail(stderr, err)
	}
	check := cc.Check
	if fs.NArg() != len(check.SeriesNames) {
		return fail(stderr, fmt.Errorf("check %q reads %d series file(s), got %d", cc.Name, len(check.SeriesNames), fs.NArg()))
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
		counts, err = runStream(cc, fs.Args(), *naive, *ckptPath, *ckptEvery, *restore)
		if err != nil {
			return fail(stderr, err)
		}
	} else if plan, err := sound.CompilePlan(check, params, cc.Seed); err != nil {
		return fail(stderr, err)
	} else if *naive {
		// RunNaive refuses the series a SOUND run refuses, and its
		// outcomes are index-aligned with the window tuples.
		outcomes, err := plan.RunNaive(ss)
		if err != nil {
			return fail(stderr, err)
		}
		var tuples []sound.WindowTuple
		if *verbose {
			tuples = check.Window.Windows(ss)
		}
		for i, o := range outcomes {
			counts[o]++
			if *verbose {
				fmt.Fprintf(stdout, "window %d [%g, %g): %v\n", tuples[i].Index, tuples[i].Start, tuples[i].End, o)
			}
		}
	} else {
		results, err = plan.Run(ss)
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
		cc.Name, total, counts[sound.Satisfied], counts[sound.Violated], counts[sound.Inconclusive])
	if *explain {
		a, err := sound.NewAnalyzer(params, cc.Seed)
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

// runStream registers the check alone with a Mux and replays the series
// through one operator of it, driven directly by this loop (the same
// operator a soundserve shard runs): events from all input files
// are merged in time order, file i's keyed by the check's input i, and
// routed to the check inputs by key. The files are streamed — memory
// stays O(window), not O(file) — and the outcome counts match what the
// check's windows produce online.
//
// With ckptPath the loop writes a snapshot every `every` events — the
// operator state, the outcome counters and the replay offset, taken
// between two Process calls; with restorePath they are loaded back, the
// first offset events are skipped, and the resumed replay is
// bit-identical to an uninterrupted one.
func runStream(cc ingest.CheckConfig, paths []string, naive bool, ckptPath string, every int, restorePath string) (map[sound.Outcome]int, error) {
	inputs := cc.Check.SeriesNames
	out := &checker.StreamOutcomes{}
	mux := checker.NewMux(false, checker.EvictionPolicy{})
	err := mux.Register(checker.MuxCheck{
		Name:   cc.Name,
		Check:  cc.Check,
		Params: cc.Params,
		Seed:   cc.Seed,
		Naive:  naive,
		Out:    out,
		Route:  checker.ByInputKeys(inputs...),
	})
	if err != nil {
		return nil, err
	}
	op := mux.Factory()()
	fp, err := streamFingerprint(cc, paths, naive)
	if err != nil {
		return nil, err
	}
	var offset uint64
	if restorePath != "" {
		if offset, err = readSnapshot(restorePath, fp, op, out); err != nil {
			return nil, err
		}
	}

	cursors := make([]*csvCursor, 0, len(paths))
	defer func() {
		for _, c := range cursors {
			c.close()
		}
	}()
	for _, path := range paths {
		cur, err := newCSVCursor(path)
		if err != nil {
			return nil, err
		}
		cursors = append(cursors, cur)
	}

	// Time-ordered merge of the input streams (each cursor exposes its
	// head point); sent counts the logical event position so a restored
	// replay skips what the snapshot run already processed.
	discard := func(stream.Event) {}
	var sent uint64
	for {
		best := -1
		for i, c := range cursors {
			if c.ok && (best < 0 || c.cur.T < cursors[best].cur.T) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		p := cursors[best].cur
		cursors[best].advance()
		if err := cursors[best].err; err != nil {
			return nil, err
		}
		sent++
		if sent <= offset {
			continue
		}
		op.Process(stream.Event{Time: p.T, Key: inputs[best], Value: p.V, SigUp: p.SigUp, SigDown: p.SigDown}, discard)
		if ckptPath != "" && sent%uint64(every) == 0 {
			if err := writeSnapshot(ckptPath, fp, sent, op, out); err != nil {
				return nil, fmt.Errorf("writing checkpoint: %w", err)
			}
		}
	}
	if sent < offset {
		return nil, fmt.Errorf("snapshot %s resumes at event %d, but the inputs hold only %d events", restorePath, offset, sent)
	}
	op.Flush(discard)
	c := out.Counts()
	return map[sound.Outcome]int{
		sound.Satisfied:    c.Satisfied,
		sound.Violated:     c.Violated,
		sound.Inconclusive: c.Inconclusive,
	}, nil
}

// streamFingerprint identifies a replay configuration: restoring a
// snapshot under another check, other parameters or other files would
// resume into a stream it does not belong to, so the mismatch fails
// loudly. The check enters as its canonical spec (ingest.FormatCheck).
func streamFingerprint(cc ingest.CheckConfig, paths []string, naive bool) (string, error) {
	text, err := ingest.FormatCheck(cc)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("soundcheck|%s|c=%g|n=%d|naive=%t|%s",
		text, cc.Params.Credibility, cc.Params.MaxSamples, naive, strings.Join(paths, ",")), nil
}

// writeSnapshot persists one snapshot: fingerprint, replay offset,
// outcome counters and operator state, written to a temp file that is
// synced before it is renamed over the previous snapshot, so a crash or
// a failed write at any point leaves the previous snapshot intact.
func writeSnapshot(path, fp string, offset uint64, op stream.Processor, out *checker.StreamOutcomes) error {
	enc := checkpoint.NewEncoder()
	enc.String(fp)
	enc.Uvarint(offset)
	out.EncodeTo(enc)
	if err := checker.EncodeOperator(op, enc); err != nil {
		return err
	}
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

// readSnapshot loads a writeSnapshot document into a fresh operator and
// its counters and returns the replay offset to resume from.
func readSnapshot(path, fp string, op stream.Processor, out *checker.StreamOutcomes) (uint64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	dec, err := checkpoint.NewDecoder(data)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", path, err)
	}
	if got := dec.String(); dec.Err() == nil && got != fp {
		return 0, fmt.Errorf("snapshot %s was written by a different run configuration (%q, this run is %q)", path, got, fp)
	}
	offset := dec.Uvarint()
	if err := out.DecodeFrom(dec); err != nil {
		return 0, fmt.Errorf("%s: %w", path, err)
	}
	if err := checker.DecodeOperator(op, dec); err != nil {
		return 0, fmt.Errorf("%s: %w", path, err)
	}
	if rem := dec.Remaining(); rem != 0 {
		return 0, fmt.Errorf("%s: %d trailing bytes after the operator state", path, rem)
	}
	return offset, nil
}
