package main

import (
	"encoding/json"
	"fmt"
	"os"

	"aum"
)

// scenarioMode implements -scenarios: load every declarative scenario
// in dir, then either lint (validate + compile, one line per file) or
// sweep the whole set through the runner pool as one comparison matrix
// (the action unless -lint is set).
func scenarioMode(dir string, lint bool, matrixOut, format string, workers int) error {
	specs, err := aum.LoadScenarioDir(dir)
	if err != nil {
		return err
	}
	if lint {
		for _, s := range specs {
			if _, err := aum.CompileScenario(s); err != nil {
				return err
			}
			fmt.Printf("ok  %-24s %s\n", s.Name, s.Description)
		}
		fmt.Printf("%d scenarios valid\n", len(specs))
		return nil
	}

	lab := aum.NewLab()
	if workers > 0 {
		lab.SetWorkers(workers)
	}
	tbl, err := aum.ScenarioMatrix(lab, specs)
	if err != nil {
		return err
	}
	if format == "csv" {
		fmt.Printf("# %s: %s\n%s\n", tbl.ID, tbl.Title, tbl.RenderCSV())
	} else {
		fmt.Print(tbl.Render())
	}
	if matrixOut != "" {
		data, err := json.MarshalIndent(tbl, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(matrixOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d scenarios)\n", matrixOut, len(specs))
	}
	return nil
}
