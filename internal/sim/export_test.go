package sim

// RunAudited exposes runAudited to the external tests, which can import the
// adaptation tool (it depends on this package through internal/profile).
var RunAudited = runAudited

// RaceEnabled lets the external allocation-regression tests skip under the
// race detector too.
const RaceEnabled = raceEnabled
