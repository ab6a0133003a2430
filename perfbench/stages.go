package main

import "strings"

// Pipeline stage attribution of CPU-profile samples. A sample belongs to
// the pipeline when its stack holds a cfd/internal/pipeline.(*Core)
// method. It is charged to the first frame, walking from the leaf toward
// the root, that the tables below name. Frames they do not name (the
// runtime, core queues, memory) are transparent, so a runtime.duffcopy
// called from fetch is charged to fetch. A pipeline function the table
// does not name stops the walk as unbucketed; its share is bounded by
// maxUnbucketed, so a renamed hot function cannot silently drop out.

// stages lists the buckets in report order.
var stages = []string{"fetch", "rename", "issue", "execute", "retire", "recover", "predictor", "cache", "energy", "other"}

// maxUnbucketed bounds the share of pipeline samples charged to pipeline
// functions missing from pipelineStage.
const maxUnbucketed = 0.05

const pipelinePkg = "cfd/internal/pipeline."

// packageStage charges every function of a package to one bucket.
var packageStage = map[string]string{
	"cfd/internal/predictor.": "predictor",
	"cfd/internal/cache.":     "cache",
	"cfd/internal/energy.":    "energy",
}

// pipelineStage maps cfd/internal/pipeline functions, with the package
// path and any closure suffix removed, to their stage.
var pipelineStage = map[string]string{
	"(*Core).fetch":          "fetch",
	"(*Core).predictCond":    "fetch",
	"(*Core).fetchBranchBQ":  "fetch",
	"(*Core).bqMiss":         "fetch",
	"(*Core).btbProbe":       "fetch",
	"(*Core).fetchCtxSwitch": "fetch",
	"isCtxSwitch":            "fetch",
	"(*Core).ctxImage":       "fetch",
	"(*Core).scratchBQ":      "fetch",
	"(*Core).scratchTQ":      "fetch",
	"(*Core).scratchVQ":      "fetch",
	"(*Oracle).Next":         "fetch",
	"(*Oracle).Covers":       "fetch",

	"(*Core).rename":    "rename",
	"needsIQ":           "rename",
	"(*Core).allocPreg": "rename",
	"(*Core).freeCount": "rename",

	"(*Core).issue": "issue",
	"(*Core).ready": "issue",
	"portFor":       "issue",

	"(*Core).execute":           "execute",
	"(*Core).complete":          "execute",
	"(*Core).agenStores":        "execute",
	"(*Core).advanceSQResolved": "execute",
	"(*Core).readSrc":           "execute",
	"sizeMask":                  "execute",
	"(*Core).chargeMemEnergy":   "execute",
	"(*Core).sqLookup":          "execute",
	"(*Core).resolveBranch":     "execute",
	"(*Core).completePushBQ":    "execute",
	"(*Core).confirmSpecPop":    "execute",
	"(*Core).findPop":           "execute",
	"(*Core).schedule":          "execute",

	"(*Core).retire":       "retire",
	"(*Core).freePreg":     "retire",
	"(*Core).committedReg": "retire",
	"(*retRing).record":    "retire",

	"(*Core).recoverAfter":   "recover",
	"(*Core).undoFetchSide":  "recover",
	"(*Core).undoRenameSide": "recover",
	"(*Core).lateRecover":    "recover",
	"(*Core).noteRecovery":   "recover",
	"(*Oracle).Undo":         "recover",

	"(*Core).Cycle":             "other",
	"(*Core).attributeCycle":    "other",
	"cfdOverheadOp":             "other",
	"(*Core).idleSkip":          "other",
	"(*Core).obsTick":           "other",
	"(*Core).intervalCounters":  "other",
	"(*Core).FinishObservation": "other",
	"(*Core).checkInvariants":   "other",
	"(*Core).traceRecord":       "other",
	"(*Core).Run":               "other",
	"(*Core).RunCtx":            "other",
	"(*Core).runCtx":            "other",
	"New":                       "other",
	"nextPow2":                  "other",
	"(*Core).robAt":             "other",
	"(*Core).sqAt":              "other",
	"(*Core).robCount":          "other",
	"(*Core).fqLen":             "other",
	"(*Core).fqFront":           "other",
	"(*bqHW).length":            "other",
	"(*bqHW).at":                "other",
	"(*tqHW).length":            "other",
	"(*tqHW).at":                "other",
	"(*vqRen).length":           "other",
	"(*vqRen).at":               "other",
	"(*Core).ArchRegs":          "other",
	"(*Core).ArchReg":           "other",
	"(*Core).archBQ":            "other",
	"(*Core).archTQ":            "other",
	"(*Core).archVQ":            "other",
}

// unbucketed marks a pipeline sample whose first named frame is a
// pipeline function missing from pipelineStage.
const unbucketed = "unbucketed"

// stageOf returns the bucket of one sample's stack (leaf first), or "" when
// the sample is not pipeline time. For an unbucketed sample fn is the
// pipeline function that stopped the walk.
func stageOf(stack []string) (stage, fn string) {
	inPipeline := false
	for _, fn := range stack {
		if strings.HasPrefix(fn, pipelinePkg+"(*Core).") {
			inPipeline = true
			break
		}
	}
	if !inPipeline {
		return "", ""
	}
	for _, fn := range stack {
		for pkg, st := range packageStage {
			if strings.HasPrefix(fn, pkg) {
				return st, ""
			}
		}
		name, ok := strings.CutPrefix(fn, pipelinePkg)
		if !ok {
			continue
		}
		if i := strings.Index(name, ".func"); i >= 0 {
			name = name[:i]
		}
		if st, ok := pipelineStage[name]; ok {
			return st, ""
		}
		return unbucketed, fn
	}
	return unbucketed, ""
}
