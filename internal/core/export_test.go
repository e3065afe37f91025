package core

// MaxCurveSets exposes the curve cache's bound to the external tests.
const MaxCurveSets = maxCurveSets
