package experiments

import "sort"

// PolicyTableNames lists every name the policy table resolves, sorted.
func PolicyTableNames() []string {
	var names []string
	for name := range policies {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
