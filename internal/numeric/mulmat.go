package numeric

// MulMat sets c = A·B, where a holds the m×k matrix A and b the k×n
// matrix B, both row-major, and c receives the m×n product row-major:
//
//	c[i*n+j] = 0 + a[i*k]·b[j] + a[i*k+1]·b[n+j] + … + a[i*k+k-1]·b[(k-1)*n+j],
//
// summed in ascending index, each product rounded before its add, exactly
// as a one-accumulator loop sums it, so every element is that loop's bit
// for bit. m is len(a)/k; k and n must be positive, len(a) a multiple of
// k, len(b) = k·n and len(c) = m·n, or MulMat panics before touching
// anything. c must not overlap a or b.
//
// On amd64 hosts whose CPU and operating system support AVX2 the product
// runs in an assembly kernel whose vector lanes are four columns of c:
// each lane forms its own element's sum in the order above, with a
// separate multiply and add and never a fused one, so the lanes equal the
// Go kernel bit for bit (DESIGN.md §22). Every other host runs the Go
// kernel.
func MulMat(c, a, b []float64, k, n int) {
	if k <= 0 || n <= 0 || len(a)%k != 0 || len(b) != k*n || len(c) != len(a)/k*n {
		panic("numeric: MulMat dimension mismatch")
	}
	m := len(a) / k
	if useAVX2 {
		mulMatAVX2(c, a, b, m, k, n)
		return
	}
	mulMatGo(c, a, b, m, k, n)
}

// mulMatGo is MulMat's portable kernel, for arguments MulMat has
// checked. It streams B row by row: each pass over a pair of rows of c
// adds four inner products to every element of both, with the eight
// values of A it needs in registers, so every loaded value of B serves
// two products and every element of c is loaded and stored once per four
// products. c holds each running sum between passes, so every element
// still adds its products one at a time in ascending order. float64(x*y)
// rounds each product before its add, so no architecture fuses the two
// into one FMA.
func mulMatGo(c, a, b []float64, m, k, n int) {
	clear(c)
	i := 0
	for ; i+2 <= m; i += 2 {
		mulRowPairGo(c[i*n:][:n], c[(i+1)*n:][:n], a[i*k:][:k], a[(i+1)*k:][:k], b)
	}
	if i < m {
		mulRowGo(c[i*n:][:n], a[i*k:][:k], b)
	}
}

// mulRowPairGo adds a0·B to c0 and a1·B to c1, for the rows a0 and a1 of
// equal length k and the k×len(c0) matrix b.
func mulRowPairGo(c0, c1, a0, a1, b []float64) {
	n, k := len(c0), len(a0)
	c1 = c1[:n]
	a1 = a1[:k]
	q := 0
	for ; q+4 <= k; q += 4 {
		x00, x01, x02, x03 := a0[q], a0[q+1], a0[q+2], a0[q+3]
		x10, x11, x12, x13 := a1[q], a1[q+1], a1[q+2], a1[q+3]
		// Reslicing to n lets the compiler drop the bounds checks.
		b0 := b[q*n:][:n]
		b1 := b[(q+1)*n:][:n]
		b2 := b[(q+2)*n:][:n]
		b3 := b[(q+3)*n:][:n]
		for j, s := range c0 {
			y0, y1, y2, y3 := b0[j], b1[j], b2[j], b3[j]
			s += float64(x00 * y0)
			s += float64(x01 * y1)
			s += float64(x02 * y2)
			s += float64(x03 * y3)
			c0[j] = s
			t := c1[j]
			t += float64(x10 * y0)
			t += float64(x11 * y1)
			t += float64(x12 * y2)
			t += float64(x13 * y3)
			c1[j] = t
		}
	}
	for ; q < k; q++ {
		x0, x1 := a0[q], a1[q]
		for j, y := range b[q*n:][:n] {
			c0[j] += float64(x0 * y)
			c1[j] += float64(x1 * y)
		}
	}
}

// mulRowGo adds a·B to c, for the row a of length k and the k×len(c)
// matrix b: four inner products per pass.
func mulRowGo(c, a, b []float64) {
	n, k := len(c), len(a)
	q := 0
	for ; q+4 <= k; q += 4 {
		x0, x1, x2, x3 := a[q], a[q+1], a[q+2], a[q+3]
		b0 := b[q*n:][:n]
		b1 := b[(q+1)*n:][:n]
		b2 := b[(q+2)*n:][:n]
		b3 := b[(q+3)*n:][:n]
		for j, s := range c {
			s += float64(x0 * b0[j])
			s += float64(x1 * b1[j])
			s += float64(x2 * b2[j])
			s += float64(x3 * b3[j])
			c[j] = s
		}
	}
	for ; q < k; q++ {
		x := a[q]
		for j, y := range b[q*n:][:n] {
			c[j] += float64(x * y)
		}
	}
}
