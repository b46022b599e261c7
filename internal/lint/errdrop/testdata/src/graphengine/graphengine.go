// Package graphengine is a miniature of saga/internal/graphengine for
// analyzer tests.
package graphengine

type Engine struct{}

func (e *Engine) Publish(source string) (uint64, error)   { return 0, nil }
func (e *Engine) PublishOp(source string) (uint64, error) { return 0, nil }
func (e *Engine) Agents() []string                        { return nil }
