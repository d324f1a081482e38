//! Criterion bench: single-router switch allocation and traversal.

use criterion::{criterion_group, criterion_main, Criterion};
use noc_router::{Lookahead, Router, RouterConfig};
use noc_sim::FlitSlab;
use noc_topology::{routing, Mesh};
use noc_types::{Coord, Credit, DestinationSet, MessageClass, Packet, PacketKind, Port};
use std::hint::black_box;

fn unicast_flit(id: u64) -> noc_types::Flit {
    let p = Packet::new(id, 0, DestinationSet::unicast(7), PacketKind::Request, 0);
    let mut f = p.to_flits().remove(0);
    f.set_vc((id % 4) as u8);
    f
}

fn bench_bypass_hop(c: &mut Criterion) {
    let mesh = Mesh::new(4).unwrap();
    c.bench_function("router_bypassed_hop", |b| {
        b.iter_batched(
            || {
                let router = Router::new(&RouterConfig::proposed(true), mesh, Coord::new(1, 1));
                (router, FlitSlab::new())
            },
            |(mut router, mut slab)| {
                for i in 0..100u64 {
                    let flit = unicast_flit(i);
                    let ports =
                        routing::requested_ports(&mesh, router.coord(), flit.destinations());
                    let la =
                        Lookahead::new(flit.id(), flit.message_class(), flit.vc().unwrap(), ports);
                    router.accept_flit(Port::West, flit);
                    router.accept_lookahead(Port::West, la);
                    let out = black_box(router.step(i, &mut slab));
                    // Model an always-ready downstream router: return the
                    // credit for every departed flit so flow control never
                    // stalls the benchmark loop.
                    for departure in out.departures {
                        if let Some(vc) = slab.take(departure.flit).vc() {
                            router.accept_credit(
                                departure.port,
                                Credit::new(MessageClass::Request, vc),
                            );
                        }
                    }
                }
                (router, slab)
            },
            criterion::BatchSize::SmallInput,
        );
    });
}

fn bench_buffered_hop(c: &mut Criterion) {
    let mesh = Mesh::new(4).unwrap();
    c.bench_function("router_buffered_hop", |b| {
        b.iter_batched(
            || {
                let router =
                    Router::new(&RouterConfig::aggressive_baseline(), mesh, Coord::new(1, 1));
                (router, FlitSlab::new())
            },
            |(mut router, mut slab)| {
                for i in 0..100u64 {
                    // Inject a new flit only when its VC has drained, exactly
                    // as an upstream router limited by credits would.
                    let flit = unicast_flit(i);
                    let vc = flit.vc().unwrap();
                    if router
                        .input(Port::West)
                        .vc(MessageClass::Request, vc)
                        .is_empty()
                    {
                        router.accept_flit(Port::West, flit);
                    }
                    let out = black_box(router.step(i, &mut slab));
                    for departure in out.departures {
                        if let Some(vc) = slab.take(departure.flit).vc() {
                            router.accept_credit(
                                departure.port,
                                Credit::new(MessageClass::Request, vc),
                            );
                        }
                    }
                }
                (router, slab)
            },
            criterion::BatchSize::SmallInput,
        );
    });
}

/// The two switch-allocation arbiters on bitmask request vectors (mSA-I
/// shape: 6 VC requestors; mSA-II shape: 5 port requestors), as the router's
/// hot loop feeds them every cycle.
fn bench_arbiters(c: &mut Criterion) {
    use noc_router::{MatrixArbiter, RoundRobinArbiter};

    let mut rr = RoundRobinArbiter::new(6);
    let mut pattern = 0u32;
    c.bench_function("arbiter_msa1_rr_mask", |b| {
        b.iter(|| {
            pattern = pattern.wrapping_add(0x9E37_79B9);
            black_box(rr.arbitrate_mask(pattern & 0x3F | 1))
        });
    });

    let mut matrix = MatrixArbiter::new(5);
    let mut pattern = 0u32;
    c.bench_function("arbiter_msa2_matrix_mask", |b| {
        b.iter(|| {
            pattern = pattern.wrapping_add(0x9E37_79B9);
            black_box(matrix.arbitrate_mask(pattern & 0x1F | 1))
        });
    });
}

criterion_group!(
    benches,
    bench_bypass_hop,
    bench_buffered_hop,
    bench_arbiters
);
criterion_main!(benches);
