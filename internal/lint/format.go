package lint

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Machine-readable output and the committed-baseline mechanism:
// `mobilint -format json` is what CI uploads as an artifact, and
// `-baseline lint_baseline.json` lets a future check land warn-first:
// known findings are recorded in the baseline (kept empty at merge on
// this repo) and only new ones fail the gate.

// jsonFinding is one finding in -format json output.
type jsonFinding struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Check   string `json:"check"`
	Message string `json:"message"`
}

// jsonReport is the -format json document.
type jsonReport struct {
	Version  int           `json:"version"`
	Count    int           `json:"count"`
	Findings []jsonFinding `json:"findings"`
}

// WriteJSON renders findings as the stable JSON report consumed by
// CI tooling.
func WriteJSON(w io.Writer, findings []Finding) error {
	rep := jsonReport{Version: 1, Count: len(findings), Findings: []jsonFinding{}}
	for _, f := range findings {
		rep.Findings = append(rep.Findings, jsonFinding{
			File: f.Pos.Filename, Line: f.Pos.Line, Col: f.Pos.Column,
			Check: f.Check, Message: f.Message,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// Baseline is a committed set of known findings a gate tolerates.
// Matching is line-insensitive — (check, file, message) — so pure
// line-shift refactors do not resurrect baselined findings.
type Baseline struct {
	remaining map[string]int
}

// baselineEntry is one tolerated finding on disk.
type baselineEntry struct {
	Check   string `json:"check"`
	File    string `json:"file"`
	Message string `json:"message"`
}

// baselineFile is the lint_baseline.json document.
type baselineFile struct {
	Version  int             `json:"version"`
	Findings []baselineEntry `json:"findings"`
}

func baselineKey(check, file, message string) string {
	return check + "\x00" + file + "\x00" + message
}

// LoadBaseline reads a baseline file written by hand or from
// `mobilint -format json` output.
func LoadBaseline(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("lint: baseline: %w", err)
	}
	var bf baselineFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("lint: baseline %s: %w", path, err)
	}
	if bf.Version != 1 {
		return nil, fmt.Errorf("lint: baseline %s: unsupported version %d", path, bf.Version)
	}
	b := &Baseline{remaining: map[string]int{}}
	for _, e := range bf.Findings {
		b.remaining[baselineKey(e.Check, e.File, e.Message)]++
	}
	return b, nil
}

// Apply filters out findings recorded in the baseline (each entry
// absorbs one occurrence) and returns the survivors plus the number
// absorbed.
func (b *Baseline) Apply(findings []Finding) (kept []Finding, absorbed int) {
	remaining := make(map[string]int, len(b.remaining))
	for k, v := range b.remaining {
		remaining[k] = v
	}
	for _, f := range findings {
		key := baselineKey(f.Check, f.Pos.Filename, f.Message)
		if remaining[key] > 0 {
			remaining[key]--
			absorbed++
			continue
		}
		kept = append(kept, f)
	}
	return kept, absorbed
}
