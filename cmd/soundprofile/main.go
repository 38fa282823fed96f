// Command soundprofile suggests sanity constraints from trusted CSV data
// series (t,v[,sig_up[,sig_down]]), the constraint-definition assist the
// paper motivates in §II. Each suggestion prints its check spec
// (ingest.FormatCheck), which soundserve -check and POST /checks accept
// as is: the check's inputs are routed from events keyed by the series
// names, each a file name without its extension. Accepting a suggestion
// is a copy-paste:
//
//	soundprofile load.csv work.csv flux.csv
//	soundprofile -mincorr 0.5 a.csv b.csv
//	curl -X POST --data '<printed spec>' http://localhost:7071/checks
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"sound/internal/checker"
	"sound/internal/ingest"
	"sound/internal/profile"
	"sound/internal/series"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("soundprofile", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		minCorr  = fs.Float64("mincorr", 0.7, "minimum |correlation| to suggest a correlation check")
		margin   = fs.Float64("margin", 1.5, "range margin in multiples of the IQR")
		tolerate = fs.Float64("monotone-tolerance", 0, "fraction of decreasing steps tolerated for monotonicity")
	)
	if err := fs.Parse(args); err != nil {
		return 1
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "soundprofile: no input files")
		return 1
	}
	data := map[string]series.Series{}
	for _, path := range fs.Args() {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintln(stderr, "soundprofile:", err)
			return 1
		}
		s, err := series.ReadCSV(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(stderr, "soundprofile: %s: %v\n", path, err)
			return 1
		}
		name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
		data[name] = s
	}

	sugs := profile.Suggest(data, profile.Options{
		RangeMargin:       *margin,
		MinCorrelation:    *minCorr,
		MonotoneTolerance: *tolerate,
	})
	if len(sugs) == 0 {
		fmt.Fprintln(stdout, "no suggestions (series too short or structureless)")
		return 0
	}
	for _, sug := range sugs {
		spec, err := ingest.FormatCheck(ingest.CheckConfig{
			Name:  sug.Check.Name,
			Check: sug.Check,
			Seed:  specSeed,
			Route: checker.ByInputKeys(sug.Check.SeriesNames...),
		})
		if err != nil {
			spec = "none: " + err.Error()
		}
		fmt.Fprintf(stdout, "[%.2f] %s\n       evidence: %s\n       spec: %s\n",
			sug.Score, sug.Check.Name, sug.Evidence, spec)
	}
	return 0
}

// specSeed is the seed a printed spec names: soundserve's default.
const specSeed = 1
