//! Structural-sharing tests for the Arc-backed network representation:
//! clones *share* storage (`Arc::ptr_eq`) instead of copying tables.

use mlo_csp::random::{satisfiable_network, RandomNetworkSpec};
use std::sync::Arc;

#[test]
fn clones_share_storage() {
    let spec = RandomNetworkSpec {
        variables: 12,
        domain_size: 4,
        density: 0.5,
        tightness: 0.3,
        seed: 7,
    };
    let (net, _) = satisfiable_network(&spec);
    // A clone is the whole storage, shared.
    let clone = net.clone();
    assert!(net.shares_storage(&clone));
    assert!(Arc::ptr_eq(net.storage(), clone.storage()));
}
