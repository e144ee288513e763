package lint

import (
	"encoding/json"
	"io"
)

// Machine-readable output: `mobilint -format json` is what CI uploads
// as an artifact.

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
