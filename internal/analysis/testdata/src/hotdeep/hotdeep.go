// Package hotdeep pins multi-hop may-allocate propagation: the make sits
// behind a leading if, in a helper two calls away from the marked
// function and declared after it.
package hotdeep

//fssga:hotpath
func Hot(n int) int {
	return first(n) // want `call to first may allocate`
}

func first(n int) int { return second(n) }

func second(n int) int {
	if n > 0 {
		s := make([]int, n)
		return len(s)
	}
	return 0
}
