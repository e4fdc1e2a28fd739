package pipeline

import "repro/internal/cn"

// Placeholder is the positional keyword stand-in of generic networks.
var Placeholder = placeholder

// GenericCNs returns the generic candidate networks of the query's
// template (nil before the generate stage has run).
func (q *Query) GenericCNs() []*cn.Network {
	if q.tmpl == nil {
		return nil
	}
	return q.tmpl.cns
}
