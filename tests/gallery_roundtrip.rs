//! The gallery instances survive a round trip through the text format, and
//! the shipped `.rmt` files match the library's gallery ground truth.

use rmt::core::{analysis, cuts, gallery, textio};
use rmt::graph::ViewKind;

#[test]
fn gallery_instances_round_trip_through_textio() {
    for (inst, label) in [
        (gallery::tolerant_diamond(ViewKind::AdHoc), "adhoc"),
        (gallery::unsolvable_diamond(ViewKind::Full), "full"),
        (gallery::staggered_theta(ViewKind::Radius(2)), "radius 2"),
    ] {
        let text = textio::format_instance(&inst, label);
        let again = textio::parse_instance(&text).expect("round trip parses");
        assert_eq!(again.graph(), inst.graph());
        assert_eq!(again.adversary(), inst.adversary());
        assert_eq!(again.dealer(), inst.dealer());
        assert_eq!(again.receiver(), inst.receiver());
        assert_eq!(
            cuts::find_rmt_cut(&again, None).is_some(),
            cuts::find_rmt_cut(&inst, None).is_some(),
            "{label}"
        );
    }
}

#[test]
fn shipped_instance_files_match_the_gallery() {
    let diamond = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples/instances/tolerant_diamond.rmt"
    ))
    .expect("sample file exists");
    let parsed = textio::parse_instance(&diamond).unwrap();
    let reference = gallery::tolerant_diamond(ViewKind::AdHoc);
    assert_eq!(parsed.graph(), reference.graph());
    assert_eq!(parsed.adversary(), reference.adversary());

    let theta = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples/instances/staggered_theta.rmt"
    ))
    .expect("sample file exists");
    let parsed = textio::parse_instance(&theta).unwrap();
    let (g, z) = gallery::staggered_theta_parts();
    assert_eq!(parsed.graph(), &g);
    assert_eq!(parsed.adversary(), &z);
    // The file ships radius-2 views: solvable, as documented.
    assert!(analysis::characterize(&parsed).solvable());
}
