// Fixture: `Vec::with_capacity` and `vec![..]`, once inside a loop of a
// function the hot-path manifest names (findings) and once hoisted above
// the loops (fine).

pub fn hot_kernel(n: usize) -> usize {
    let hoisted: Vec<usize> = Vec::with_capacity(n);
    let seed = vec![0usize; n];
    let mut total = hoisted.capacity() + seed.len();
    for i in 0..n {
        let buf: Vec<usize> = Vec::with_capacity(i);
        total += buf.capacity();
    }
    while total < n {
        let pair = vec![total; 2];
        total += pair.len();
    }
    total
}
