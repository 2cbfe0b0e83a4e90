//! Same seed → byte-identical inputs; different seed → different inputs.
//! The program under test sees only what these functions return.

use fcix_perf::inputs::{
    c2_molecule, hubbard_problem, jitter_of_point, point_of_seed, served_jobs, served_pool,
    N_POINTS, POOL_SIZE, POOL_SMALL, STREAM_JOBS,
};

fn stream_text(seed: u64) -> String {
    served_jobs(seed, "s")
        .iter()
        .map(|j| j.to_json().to_string() + "\n")
        .collect()
}

fn integral_bits(seed: u64) -> Vec<u64> {
    let p = hubbard_problem(8, jitter_of_point(point_of_seed(seed)));
    let n = p.mo.n_orb;
    let mut bits: Vec<u64> = p.mo.h.as_slice().iter().map(|x| x.to_bits()).collect();
    for i in 0..n {
        bits.push(p.mo.eri.get(i, i, i, i).to_bits());
    }
    bits
}

#[test]
fn same_seed_gives_a_byte_identical_job_stream() {
    assert_eq!(stream_text(42), stream_text(42));
    assert_eq!(stream_text(1).len(), stream_text(1).len());
}

#[test]
fn different_seeds_give_different_job_streams() {
    assert_ne!(stream_text(1), stream_text(2));
    // The pool itself differs, not only the order.
    assert_ne!(served_pool(1), served_pool(2));
}

#[test]
fn the_stream_has_the_stated_shape_at_every_seed() {
    for seed in [1, 2, 3, 99, u64::MAX] {
        let pool = served_pool(seed);
        assert_eq!(pool.len(), POOL_SIZE);
        let jobs = served_jobs(seed, "s");
        assert_eq!(jobs.len(), STREAM_JOBS);
        let small = jobs.iter().filter(|j| j.problem.n_orb() == 4).count();
        assert_eq!(small, STREAM_JOBS * 7 / 10, "exactly 70 % 4-site jobs");
        assert!(jobs
            .iter()
            .all(|j| pool.iter().any(|(p, _)| *p == j.problem)));
        // Skewed popularity: the most popular small problem outdraws the
        // least popular one many times over.
        let count = |k: usize| jobs.iter().filter(|j| j.problem == pool[k].0).count();
        assert!(count(0) > 8 * count(POOL_SMALL - 1));
        // Ids are unique within a stream and tagged.
        let mut ids: Vec<&str> = jobs.iter().map(|j| j.id.as_str()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), STREAM_JOBS);
    }
}

#[test]
fn same_seed_gives_bit_identical_integrals_and_geometry() {
    assert_eq!(integral_bits(7), integral_bits(7));
    let u = jitter_of_point(point_of_seed(7));
    assert_eq!(
        format!("{:?}", c2_molecule(u)),
        format!("{:?}", c2_molecule(u))
    );
}

#[test]
fn seeds_on_different_points_give_different_integrals() {
    let (a, b) = (1u64..)
        .map(|s| (1, s))
        .find(|&(a, b)| point_of_seed(a) != point_of_seed(b))
        .expect("some seed lands elsewhere");
    assert_ne!(integral_bits(a), integral_bits(b));
    let (ua, ub) = (
        jitter_of_point(point_of_seed(a)),
        jitter_of_point(point_of_seed(b)),
    );
    assert_ne!(
        format!("{:?}", c2_molecule(ua)),
        format!("{:?}", c2_molecule(ub))
    );
}

#[test]
fn every_point_is_reachable_and_inside_the_band() {
    let mut seen = [false; N_POINTS];
    for seed in 0..200 {
        seen[point_of_seed(seed)] = true;
    }
    assert!(seen.iter().all(|&s| s), "{seen:?}");
    for p in 0..N_POINTS {
        let u = jitter_of_point(p);
        assert!((-1.0..1.0).contains(&u));
    }
}
