package main

import (
	"fmt"
	"os"

	"secureblox/internal/analysis"
	"secureblox/internal/apps"
	"secureblox/internal/cluster"
	"secureblox/internal/core"
	"secureblox/internal/engine"
	"secureblox/internal/seccrypto"
	"secureblox/internal/udf"
)

// configWorkload resolves what every mode compiles and runs: the scheme the
// config names, which its keys and cluster secret must match, and the row of
// apps.Workloads it names, which must run on the config's nodes.
func configWorkload(cfg *cluster.Config) (*apps.Workload, core.PolicyConfig, error) {
	pol, err := core.DeploymentPolicy(cfg)
	if err != nil {
		return nil, pol, err
	}
	w, err := apps.Lookup(cfg.Workload.Name)
	if err == nil {
		err = w.Sized(len(cfg.Nodes))
	}
	return w, pol, err
}

// compiled is what every principal of a process runs: the config's scheme
// and the engine plans of the workload's program under it, compiled once.
type compiled struct {
	pol  core.PolicyConfig
	prog *engine.Program
}

func compileWorkload(w *apps.Workload, pol core.PolicyConfig) (compiled, error) {
	res, err := w.Compile(pol)
	if err != nil {
		return compiled{}, err
	}
	prog, err := core.CompileEngine(res)
	return compiled{pol: pol, prog: prog}, err
}

// vetWorkload is the -vet pre-flight: compile the config's workload under
// its policy exactly as the run modes would, run the static analyzer, print
// every finding, and fail when any error-class finding is reported — so a
// bad program is caught before N processes are launched against it.
func vetWorkload(w *apps.Workload, pol core.PolicyConfig, stdout *os.File) error {
	res, err := w.Compile(pol)
	if err != nil {
		return err
	}
	// Planning never evaluates a UDF, so an empty keystore provides the
	// library's names and binding shapes without the configured key files.
	reg, err := udf.NewRegistry(seccrypto.NewKeyStore("vet"), nil)
	if err != nil {
		return err
	}
	rep, err := (&analysis.Analyzer{UDFs: reg}).Analyze(res.Program)
	if err != nil {
		return err
	}
	if n := analysis.WriteFindings(stdout, w.Name, rep.Findings); n > 0 {
		return fmt.Errorf("vet: workload %s (%s): %d error finding(s)", w.Name, pol.Name(), n)
	}
	fmt.Fprintf(stdout, "vet: workload %s (%s): ok\n", w.Name, pol.Name())
	return nil
}
