package analysis

import (
	"bytes"
	"encoding/json"
	"go/token"
	"strings"
	"testing"
)

// TestWriteSARIFRoundTrip pins the emitter against the validator: a
// document produced by WriteSARIF must pass ValidateSARIF, carry a
// rule per analyzer plus the "allow" pseudo-rule, and anchor paths
// under root to the SRCROOT base.
func TestWriteSARIFRoundTrip(t *testing.T) {
	diags := []Diagnostic{
		{
			Analyzer: "lockheld",
			Pos:      token.Position{Filename: "/repo/internal/hybridq/queue.go", Line: 42, Column: 3},
			Message:  "storage.WritePage does disk I/O while the hybridq mutex is held",
		},
		{
			Analyzer: "ctxpoll",
			Pos:      token.Position{Filename: "/elsewhere/outside.go", Line: 7},
			Message:  "loop drains it.Next without a cancellation/progress poll",
		},
		{
			// An analyzer not in the suite (e.g. the "allow"
			// pseudo-analyzer's cousin from a future version) must still
			// yield a declared rule.
			Analyzer: "futurecheck",
			Pos:      token.Position{Filename: "/repo/x.go", Line: 0},
			Message:  "something",
		},
	}
	var buf bytes.Buffer
	if err := WriteSARIF(&buf, "/repo", Suite(), diags); err != nil {
		t.Fatalf("WriteSARIF: %v", err)
	}
	if err := ValidateSARIF(buf.Bytes()); err != nil {
		t.Fatalf("emitted SARIF does not validate: %v", err)
	}

	var log sarifLog
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatal(err)
	}
	if log.Version != sarifVersion || log.Schema != sarifSchema {
		t.Fatalf("version/schema = %q/%q", log.Version, log.Schema)
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "distjoin-vet" {
		t.Fatalf("driver name = %q", run.Tool.Driver.Name)
	}
	ruleIDs := map[string]bool{}
	for _, r := range run.Tool.Driver.Rules {
		ruleIDs[r.ID] = true
	}
	for _, a := range Suite() {
		if !ruleIDs[a.Name] {
			t.Errorf("rule %q missing from driver.rules", a.Name)
		}
	}
	for _, id := range []string{"allow", "futurecheck"} {
		if !ruleIDs[id] {
			t.Errorf("rule %q missing from driver.rules", id)
		}
	}

	if got := len(run.Results); got != len(diags) {
		t.Fatalf("got %d results, want %d", got, len(diags))
	}
	r0 := run.Results[0].Locations[0].PhysicalLocation.ArtifactLocation
	if r0.URI != "internal/hybridq/queue.go" || r0.URIBaseID != sarifSrcRoot {
		t.Errorf("in-root path: uri=%q base=%q", r0.URI, r0.URIBaseID)
	}
	r1 := run.Results[1].Locations[0].PhysicalLocation.ArtifactLocation
	if !strings.HasSuffix(r1.URI, "outside.go") || r1.URIBaseID != "" {
		t.Errorf("out-of-root path: uri=%q base=%q", r1.URI, r1.URIBaseID)
	}
	if ln := run.Results[2].Locations[0].PhysicalLocation.Region.StartLine; ln != 1 {
		t.Errorf("zero line clamped to %d, want 1", ln)
	}
	if run.Results[0].RuleIndex < 0 || run.Tool.Driver.Rules[run.Results[0].RuleIndex].ID != "lockheld" {
		t.Errorf("ruleIndex does not resolve to lockheld")
	}
	if base, ok := run.OriginalURIBaseIDs[sarifSrcRoot]; !ok || base.URI != "file:///repo/" {
		t.Errorf("originalUriBaseIds = %+v", run.OriginalURIBaseIDs)
	}
}

// TestWriteSARIFEmpty pins that a clean run still yields a valid
// document with an empty (non-null) results array — the shape GitHub
// code scanning requires to close out previously reported alerts.
func TestWriteSARIFEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSARIF(&buf, "/repo", Suite(), nil); err != nil {
		t.Fatal(err)
	}
	if err := ValidateSARIF(buf.Bytes()); err != nil {
		t.Fatalf("empty SARIF does not validate: %v", err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"results": []`)) {
		t.Errorf("results must serialize as an empty array, not null:\n%s", buf.String())
	}
}

// TestValidateSARIFRejects drives the validator with broken documents
// so the CI -check-sarif step actually guards something.
func TestValidateSARIFRejects(t *testing.T) {
	valid := func() string {
		var buf bytes.Buffer
		if err := WriteSARIF(&buf, "/repo", Suite(), []Diagnostic{{
			Analyzer: "floatcmp",
			Pos:      token.Position{Filename: "/repo/a.go", Line: 3},
			Message:  "x == y on float64",
		}}); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}()

	cases := []struct {
		name    string
		mutate  func(string) string
		wantErr string
	}{
		{"not-json", func(s string) string { return s[:len(s)/2] }, "not valid JSON"},
		{"wrong-version", func(s string) string { return strings.Replace(s, `"2.1.0"`, `"2.0.0"`, 1) }, "version"},
		{"no-runs", func(string) string { return `{"version":"2.1.0","runs":[]}` }, "no runs"},
		{"no-driver-name", func(s string) string { return strings.Replace(s, `"distjoin-vet"`, `""`, 1) }, "tool.driver.name"},
		{"undeclared-rule", func(s string) string {
			return strings.Replace(s, `"ruleId": "floatcmp"`, `"ruleId": "ghost"`, 1)
		}, "undeclared rule"},
		{"empty-message", func(s string) string {
			return strings.Replace(s, `"text": "x == y on float64"`, `"text": ""`, 1)
		}, "message.text"},
		{"bad-start-line", func(s string) string {
			return strings.Replace(s, `"startLine": 3`, `"startLine": 0`, 1)
		}, "startLine"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			doc := tc.mutate(valid)
			err := ValidateSARIF([]byte(doc))
			if err == nil {
				t.Fatalf("validator accepted broken document:\n%s", doc)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestCollectAllows pins the -allow-report data source: well-formed
// suppressions come back sorted with their reasons, malformed ones
// come back as diagnostics.
func TestCollectAllows(t *testing.T) {
	const src = `package allowrep

func pair() (float64, float64) { return 1, 2 }

//lint:allow floatcmp exact equality is the sentinel contract here
func suppressed() bool {
	a, b := pair()
	return a == b
}

//lint:allow floatcmp
func reasonless() {}
`
	u, err := sharedLoader.CheckSources("fixture/allowrep", map[string][]byte{
		"allowrep.go": []byte(src),
	})
	if err != nil {
		t.Fatal(err)
	}
	allows, malformed := CollectAllows([]*Unit{u}, Suite())
	if len(allows) != 1 {
		t.Fatalf("got %d allows, want 1: %+v", len(allows), allows)
	}
	a := allows[0]
	if a.Analyzer != "floatcmp" || a.Reason != "exact equality is the sentinel contract here" || a.Line != 5 {
		t.Errorf("allow = %+v", a)
	}
	if len(malformed) != 1 || !strings.Contains(malformed[0].Message, "malformed") {
		t.Errorf("malformed = %v, want one missing-reason diagnostic", malformed)
	}
}
