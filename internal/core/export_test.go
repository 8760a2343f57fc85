package core

// ReferenceMinCostFlow exposes referenceMinCostFlow to the external tests
// that compare the flow kernel against it on generated workloads.
var ReferenceMinCostFlow = referenceMinCostFlow
