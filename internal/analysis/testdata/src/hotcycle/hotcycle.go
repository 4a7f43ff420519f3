// Package hotcycle pins HotpathReport's transitive verdicts under
// recursion: a reaches b, which carries an audited allocation, so a is
// audited however the cycle is entered.
package hotcycle

//fssga:hotpath
func a(n int) int {
	if n == 0 {
		return 0
	}
	return b(n - 1)
}

//fssga:hotpath
func b(n int) int {
	buf := make([]int, 1) //fssga:alloc(one scratch cell per call, audited)
	buf[0] = n
	return a(buf[0])
}
