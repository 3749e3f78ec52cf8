package trace

// WriteMTR1 exposes the test-only MTR1 reference encoder to the
// external trace_test package.
var WriteMTR1 = writeMTR1
