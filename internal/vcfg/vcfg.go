// Package vcfg is the shared configuration-validation idiom: every
// config surface in the repository (colo.Config, cluster.Config,
// gateway.Config) funnels invalid fields through Bad, so a
// validation failure always names the owning package, the offending
// field, the value it held, and the legal range — never a bare
// "invalid config".
package vcfg

import "fmt"

// FieldError reports one invalid configuration field.
type FieldError struct {
	Pkg   string // owning config surface, e.g. "colo"
	Field string // dotted path from the config root, e.g. "Config.HorizonS"
	Got   any    // the offending value
	Legal string // human-readable legal range, e.g. "> 0 (0 selects the 60 s default)"
}

func (e *FieldError) Error() string {
	return fmt.Sprintf("%s: %s = %v: must be %s", e.Pkg, e.Field, e.Got, e.Legal)
}

// Bad returns a *FieldError for the given field.
func Bad(pkg, field string, got any, legal string) error {
	return &FieldError{Pkg: pkg, Field: field, Got: got, Legal: legal}
}
