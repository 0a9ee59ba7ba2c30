package experiments

// Experiment is one reproduced table or figure: its name (cmd/repro's
// -exp value) and a runner that returns the rendered text.
type Experiment struct {
	Name string
	Run  func() (string, error)
}

// All lists every experiment in the canonical order a full reproduction
// renders them.
var All = []Experiment{
	{"table1", rendered(RunTable1)},
	{"table2", rendered(RunTable2)},
	{"table3", rendered(RunTable3)},
	{"fig2", rendered(RunFig2)},
	{"fig3", rendered(RunFig3)},
	{"fig4", rendered(RunFig4)},
	{"ecm", rendered(RunECM)},
	{"nodeperf", rendered(RunNodePerf)},
}

// Header is the line that frames one experiment's output in a
// multi-experiment text run.
func Header(name string) string {
	return "================ " + name + " ================\n"
}

// rendered adapts a runner to return its result's text rendering.
func rendered[T interface{ Render() string }](run func() (T, error)) func() (string, error) {
	return func() (string, error) {
		r, err := run()
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	}
}
