package lint

import (
	"bytes"
	"encoding/json"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fixtureFindings is a representative finding set: multiple analyzers,
// multiple files, and an em-dash to pin the JSON escaping behavior.
func fixtureFindings() []Finding {
	return []Finding{
		{
			Pos:  token.Position{Filename: "internal/segidx/segidx.go", Line: 88},
			Name: "errdrop",
			Msg:  "os.Remove discards an error result; handle it or add //xk:ignore errdrop <reason>",
		},
		{
			Pos:  token.Position{Filename: "internal/shard/coordinator.go", Line: 436},
			Name: "maporder",
			Msg:  "slice pending is built by iterating a map and returned without a sort; map order is randomized, so output order differs across runs — sort it first",
		},
	}
}

// TestFormatGoldens pins the exact bytes of both machine-readable
// formats, for a populated run and an empty one: these are the schema
// contract CI consumes, so any change must be a deliberate golden
// update.
func TestFormatGoldens(t *testing.T) {
	cases := []struct {
		golden string
		render func() ([]byte, error)
	}{
		{"format_json.txt", func() ([]byte, error) { return FormatJSON(fixtureFindings()) }},
		{"format_json_empty.txt", func() ([]byte, error) { return FormatJSON(nil) }},
		{"format_sarif.txt", func() ([]byte, error) { return FormatSARIF(fixtureFindings(), Analyzers()) }},
		{"format_sarif_empty.txt", func() ([]byte, error) { return FormatSARIF(nil, Analyzers()) }},
	}
	for _, c := range cases {
		t.Run(c.golden, func(t *testing.T) {
			got, err := c.render()
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "golden", c.golden)
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("reading golden (run `go test ./internal/lint -run Format -update`): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s drifted\n--- got ---\n%s--- want ---\n%s", c.golden, got, want)
			}
		})
	}
}

// TestFormatByteStable renders each format twice and demands identical
// bytes — a map sneaking into the report structs would randomize field
// or rule order between calls.
func TestFormatByteStable(t *testing.T) {
	for i := 0; i < 3; i++ {
		a, err := FormatJSON(fixtureFindings())
		if err != nil {
			t.Fatal(err)
		}
		b, err := FormatJSON(fixtureFindings())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatal("FormatJSON is not byte-stable across calls")
		}
		sa, err := FormatSARIF(fixtureFindings(), Analyzers())
		if err != nil {
			t.Fatal(err)
		}
		sb, err := FormatSARIF(fixtureFindings(), Analyzers())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sa, sb) {
			t.Fatal("FormatSARIF is not byte-stable across calls")
		}
	}
}

// TestFormatJSONSchema checks the structural contract a CI jq step
// relies on: version 1, tool xkvet, count matching the findings array,
// every finding carrying file/line/analyzer/message, and an empty run
// emitting [] rather than null.
func TestFormatJSONSchema(t *testing.T) {
	b, err := FormatJSON(fixtureFindings())
	if err != nil {
		t.Fatal(err)
	}
	var r struct {
		Version  int    `json:"version"`
		Tool     string `json:"tool"`
		Count    int    `json:"count"`
		Findings []struct {
			File     string `json:"file"`
			Line     int    `json:"line"`
			Analyzer string `json:"analyzer"`
			Message  string `json:"message"`
		} `json:"findings"`
	}
	if err := json.Unmarshal(b, &r); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if r.Version != 1 || r.Tool != "xkvet" {
		t.Errorf("header = version %d tool %q, want version 1 tool xkvet", r.Version, r.Tool)
	}
	if r.Count != len(r.Findings) || r.Count != len(fixtureFindings()) {
		t.Errorf("count %d does not match findings array %d", r.Count, len(r.Findings))
	}
	for i, f := range r.Findings {
		if f.File == "" || f.Line == 0 || f.Analyzer == "" || f.Message == "" {
			t.Errorf("finding %d has empty required field: %+v", i, f)
		}
	}
	empty, err := FormatJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(empty), `"findings": []`) {
		t.Errorf("empty run must emit findings: [], got:\n%s", empty)
	}
}

// TestFormatSARIFSchema checks the SARIF invariants consumers depend
// on: version 2.1.0, one run, every result's ruleId present in the
// driver's rule table, and results: [] on an empty run.
func TestFormatSARIFSchema(t *testing.T) {
	b, err := FormatSARIF(fixtureFindings(), Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				Level     string `json:"level"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(b, &log); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("want one run of SARIF 2.1.0, got version %q with %d runs", log.Version, len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "xkvet" {
		t.Errorf("driver name %q, want xkvet", run.Tool.Driver.Name)
	}
	ruleIDs := make(map[string]bool)
	for _, r := range run.Tool.Driver.Rules {
		ruleIDs[r.ID] = true
	}
	for _, a := range Analyzers() {
		if !ruleIDs[a.Name] {
			t.Errorf("registry analyzer %s missing from the SARIF rule table", a.Name)
		}
	}
	for i, res := range run.Results {
		if !ruleIDs[res.RuleID] {
			t.Errorf("result %d ruleId %q not in the rule table", i, res.RuleID)
		}
		if res.Level != "error" {
			t.Errorf("result %d level %q, want error", i, res.Level)
		}
		if len(res.Locations) != 1 || res.Locations[0].PhysicalLocation.ArtifactLocation.URI == "" ||
			res.Locations[0].PhysicalLocation.Region.StartLine == 0 {
			t.Errorf("result %d lacks a physical location: %+v", i, res)
		}
	}
	empty, err := FormatSARIF(nil, Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(empty), `"results": []`) {
		t.Errorf("empty run must emit results: [], got:\n%s", empty)
	}
}
