package engine

// The plan printer, its golden-file check and the plans' invariant checker,
// for the external test package, which prints the programs that packages
// importing engine generate.
var (
	PlanBlocks  = planBlocks
	CheckGolden = checkGolden
	CheckPlans  = checkInstalledDeltaPlans
)
