package bench

import (
	"fmt"
	"io"
	"strings"

	"sctuple/internal/obs/flight"
)

// AnalyzeReport replays the flight recorder's online anomaly
// detectors over a postmortem bundle directory (scmd -postmortem) or
// a bare JSONL step log (a bundle's steps.jsonl, or an scmd -metrics
// file) and prints a ranked report: what the run recorded as it died,
// and what the detectors find in the retained step records offline.
// It returns an error when hard anomalies are present, so
// `scbench analyze` exits non-zero exactly when the recorded run
// actually broke.
func AnalyzeReport(w io.Writer, path string) error {
	rep, err := flight.Analyze(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "postmortem analysis of %s\n", rep.Path)
	fmt.Fprintf(w, "  %d ranks, %d step records, %d completed steps\n",
		rep.Ranks, rep.Records, rep.Steps)
	if len(rep.Recorded) > 0 {
		fmt.Fprintf(w, "\nanomalies recorded by the run (%d, log order):\n", len(rep.Recorded))
		anomalyTable(w, rep.Recorded)
	}
	if len(rep.Replayed) == 0 {
		fmt.Fprintln(w, "\ndetector replay: no anomalies in the retained step records")
	} else {
		fmt.Fprintf(w, "\ndetector replay (%d anomalies, ranked by score):\n", len(rep.Replayed))
		anomalyTable(w, rep.Replayed)
	}
	if n := rep.Hard(); n > 0 {
		return fmt.Errorf("%d hard anomalies", n)
	}
	fmt.Fprintln(w, "\nno hard anomalies")
	return nil
}

func anomalyTable(w io.Writer, as []flight.Anomaly) {
	fmt.Fprintf(w, "  %-10s %8s %10s %5s  %s\n", "kind", "step", "score", "hard", "detail")
	for _, a := range as {
		hard := ""
		if a.Hard {
			hard = "HARD"
		}
		msg := strings.ReplaceAll(a.Msg, "\n", " | ")
		if len(msg) > 90 {
			msg = msg[:87] + "..."
		}
		fmt.Fprintf(w, "  %-10s %8d %10.1f %5s  %s\n", a.Kind, a.Step, a.Score, hard, msg)
	}
}
