package main

import "sync/atomic"

// stageTracer opens spans around eventflow stage functions, one per call,
// under the span of the pipeline or workflow step that runs them. With
// trace 0 the wrappers return the function unchanged.
type stageTracer struct {
	tr            *Tracer
	trace, parent uint64
}

func mapFn[In, Out any](st stageTracer, name string, fn func(In) (Out, bool, error)) func(In) (Out, bool, error) {
	if st.tr == nil || st.trace == 0 {
		return fn
	}
	return func(in In) (Out, bool, error) {
		o := st.tr.Begin(name, st.trace, st.parent)
		out, keep, err := fn(in)
		o.End()
		return out, keep, err
	}
}

func source[T any](st stageTracer, name string, next func() (T, error)) func() (T, error) {
	if st.tr == nil || st.trace == 0 {
		return next
	}
	return func() (T, error) {
		o := st.tr.Begin(name, st.trace, st.parent)
		v, err := next()
		o.End()
		return v, err
	}
}

func sink[T any](st stageTracer, name string, fn func(T) error) func(T) error {
	if st.tr == nil || st.trace == 0 {
		return fn
	}
	return func(v T) error {
		o := st.tr.Begin(name, st.trace, st.parent)
		err := fn(v)
		o.End()
		return err
	}
}

// counted wraps a stage function to add count(out) to n after each call.
func counted[In, Out any](n *atomic.Int64, count func(Out) int, fn func(In) (Out, bool, error)) func(In) (Out, bool, error) {
	return func(in In) (Out, bool, error) {
		out, keep, err := fn(in)
		if err == nil {
			n.Add(int64(count(out)))
		}
		return out, keep, err
	}
}

// mix derives the k-th input seed of a workload from its seed
// (splitmix64 finalizer), so the same seed always yields the same inputs.
func mix(seed, k uint64) uint64 {
	z := seed*0x9e3779b97f4a7c15 + k + 1
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
