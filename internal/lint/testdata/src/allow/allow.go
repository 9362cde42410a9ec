// Package allow is a lint fixture: a //lint:allow naming a rule that
// no analyzer has is reported, and one naming a real rule is not.
package allow

import "time"

//lint:allow hotalloc fixture: the rule was deleted, so this allow is stale // want `names "hotalloc", which is no analyzer's rule`
func stale() int { return 1 }

func misspelt() time.Time {
	//lint:allow waltime fixture: misspelt, so the next line is not suppressed // want `names "waltime"`
	return time.Now() // want `reads the wall clock`
}

func kept() time.Time {
	return time.Now() //lint:allow walltime fixture: a real rule suppresses and is not reported
}
