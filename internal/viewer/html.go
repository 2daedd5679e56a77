package viewer

import (
	"fmt"
	"html/template"
	"io"

	"txsampler/internal/analyzer"
	"txsampler/internal/decision"
	"txsampler/internal/htm"
	"txsampler/internal/pmu"
	"txsampler/internal/rtm"
)

type htmlThread struct {
	TID             int
	Commits, Aborts uint64
	CommitPct       float64 // bar width
	AbortPct        float64
}

type htmlReport struct {
	Program  string
	Threads  int
	Rcs      float64
	Tx, Fb   float64
	Wait, Oh float64
	Stm      float64 // zero (and its line hidden) without software transactions
	StmRatio float64 // instrumentation overhead: stm cycles / htm cycles
	Persist  float64 // persistence-stall share of CS time; zero without pmem
	Elision  []htmlElisionSite
	RatioAC  float64
	Conflict float64
	Capacity float64
	Sync     float64
	Category string

	Nodes     []contextRow
	PerThread []htmlThread
	Steps     []decision.Step
	Advice    []string
	Self      []htmlMetric
}

// htmlMetric is one self-report row.
type htmlMetric struct {
	Name    string
	Kind    string
	Display string
}

// htmlElisionSite is one row of the per-lock-site elision verdict
// table.
type htmlElisionSite struct {
	Site           string
	Htm, Stm, Lock uint64
	SuccessPct     float64
	Saved          uint64
	Verdict        string
}

var htmlTemplate = template.Must(template.New("report").Parse(`<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>TxSampler: {{.Program}}</title>
<style>
body { font-family: ui-monospace, monospace; margin: 2em; color: #222; }
h1 { font-size: 1.3em; } h2 { font-size: 1.1em; margin-top: 1.5em; }
table { border-collapse: collapse; }
td, th { padding: 2px 10px; text-align: right; }
td.scope { text-align: left; white-space: pre; }
tr:hover { background: #f3f3f3; }
.bar { display: inline-block; height: 10px; background: #4a78b8; }
.abar { background: #c0504d; }
.meta { color: #666; }
li { margin: 2px 0; }
</style></head><body>
<h1>TxSampler profile: {{.Program}} ({{.Threads}} threads)</h1>
<p class="meta">r_cs = {{printf "%.1f" .Rcs}}% &middot; in CS: tx {{printf "%.1f" .Tx}}%,
fallback {{printf "%.1f" .Fb}}%, lock-wait {{printf "%.1f" .Wait}}%, overhead {{printf "%.1f" .Oh}}%
&middot; abort/commit = {{printf "%.3f" .RatioAC}} &middot; {{.Category}}</p>
{{if .Stm}}<p class="meta">hybrid: stm {{printf "%.1f" .Stm}}% of CS &middot;
instrumentation overhead stm/htm = {{printf "%.2f" .StmRatio}}</p>{{end}}
{{if .Persist}}<p class="meta">pmem: persist {{printf "%.1f" .Persist}}% of CS
(persistence stalls: flush + fence + commit record)</p>{{end}}
{{if .Elision}}<h2>Lock elision: would it win?</h2>
<table><tr><th>lock site</th><th>htm</th><th>stm</th><th>lock</th>
<th>success</th><th>saved (cycles)</th><th>verdict</th></tr>
{{range .Elision}}<tr><td class="scope">{{.Site}}</td><td>{{.Htm}}</td><td>{{.Stm}}</td>
<td>{{.Lock}}</td><td>{{printf "%.1f" .SuccessPct}}%</td><td>{{.Saved}}</td><td>{{.Verdict}}</td></tr>
{{end}}</table>{{end}}
<p class="meta">abort weight: conflict {{printf "%.1f" .Conflict}}%,
capacity {{printf "%.1f" .Capacity}}%, sync {{printf "%.1f" .Sync}}%</p>

<h2>Calling context view</h2>
<table><tr><th>scope</th><th>CS time</th><th>abort weight</th><th>capacity</th></tr>
{{range .Nodes}}<tr><td class="scope">{{.Label}}</td>
<td>{{printf "%.1f" .TShare}}%</td><td>{{printf "%.1f" .AWShare}}%</td>
<td>{{printf "%.1f" .CapShare}}%</td></tr>
{{end}}</table>

<h2>Per-thread commits / aborts (sampled)</h2>
<table>{{range .PerThread}}<tr><td>t{{.TID}}</td>
<td>{{.Commits}}</td><td><span class="bar" style="width:{{printf "%.0f" .CommitPct}}px"></span></td>
<td>{{.Aborts}}</td><td><span class="bar abar" style="width:{{printf "%.0f" .AbortPct}}px"></span></td></tr>
{{end}}</table>

<h2>Decision tree walk (Figure 1)</h2>
<ol>{{range .Steps}}<li>({{.ID}}) <b>{{.Node}}</b> — {{.Finding}}</li>{{end}}</ol>
<h2>Suggestions</h2>
<ul>{{range .Advice}}<li>{{.}}</li>{{end}}</ul>
{{if .Self}}<h2>Profiler self-report</h2>
<table><tr><th>metric</th><th>kind</th><th>value</th></tr>
{{range .Self}}<tr><td class="scope">{{.Name}}</td><td>{{.Kind}}</td><td>{{.Display}}</td></tr>
{{end}}</table>{{end}}
</body></html>
`))

// HTML renders a standalone HTML report for a profile: the
// calling-context view, the per-thread histogram, and the decision
// tree's advice — the paper's GUI deliverable as a single file.
func HTML(w io.Writer, r *analyzer.Report, advice *decision.Advice) error {
	sh := r.TimeShares()
	data := &htmlReport{
		Program:  r.Program,
		Threads:  r.Threads,
		Rcs:      100 * r.Rcs(),
		Tx:       100 * sh[rtm.ModeHTM],
		Fb:       100 * sh[rtm.ModeLock],
		Wait:     100 * sh[rtm.ModeWaiting],
		Oh:       100 * sh[rtm.ModeOverhead],
		Stm:      100 * sh[rtm.ModeSTM],
		StmRatio: r.StmOverhead(),
		Persist:  100 * sh[rtm.ModeFlush],
		RatioAC:  r.AbortCommitRatio(),
		Conflict: 100 * r.CauseShare(htm.Conflict),
		Capacity: 100 * r.CauseShare(htm.Capacity),
		Sync:     100 * r.CauseShare(htm.Sync),
		Category: r.Categorize().String(),
		Nodes:    contextRows(r),
	}
	for _, s := range r.ElisionSites() {
		data.Elision = append(data.Elision, htmlElisionSite{
			Site: s.Site, Htm: s.Htm, Stm: s.Stm, Lock: s.Lock,
			SuccessPct: 100 * s.SuccessRate(),
			Saved:      s.SavedCycles(r.Periods[pmu.Cycles]),
			Verdict:    s.Verdict(),
		})
	}

	var maxN uint64 = 1
	for _, t := range r.PerThread {
		if t.CommitSamples > maxN {
			maxN = t.CommitSamples
		}
		if t.AbortSamples > maxN {
			maxN = t.AbortSamples
		}
	}
	for _, t := range r.PerThread {
		data.PerThread = append(data.PerThread, htmlThread{
			TID: t.TID, Commits: t.CommitSamples, Aborts: t.AbortSamples,
			CommitPct: 200 * float64(t.CommitSamples) / float64(maxN),
			AbortPct:  200 * float64(t.AbortSamples) / float64(maxN),
		})
	}
	if advice != nil {
		data.Steps = advice.Steps
		data.Advice = advice.Suggestions
	}
	for _, mv := range r.Self {
		var display string
		if mv.Kind == "histogram" {
			mean := float64(0)
			if mv.Count > 0 {
				mean = float64(mv.Sum) / float64(mv.Count)
			}
			display = fmt.Sprintf("count=%d sum=%d mean=%.1f", mv.Count, mv.Sum, mean)
		} else {
			display = fmt.Sprintf("%d", mv.Value)
		}
		data.Self = append(data.Self, htmlMetric{Name: mv.Name, Kind: mv.Kind, Display: display})
	}
	if err := htmlTemplate.Execute(w, data); err != nil {
		return fmt.Errorf("viewer: %w", err)
	}
	return nil
}
