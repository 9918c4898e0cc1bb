//! One module per paper exhibit.

pub mod fig01;
pub mod fig02;
pub mod fig04;
pub mod fig05;
pub mod fig08;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod table1;
pub mod table2;
pub mod table3;

use sync_switch_workloads::SetupId;

use crate::output::Exhibit;

/// An exhibit's id, which is also the stem of its golden under `goldens/`,
/// and the function that regenerates it.
pub type Entry = (&'static str, fn() -> Exhibit);

/// Every exhibit, in paper order.
pub const ALL: &[Entry] = &[
    ("fig1", fig01::run),
    ("fig2", fig02::run),
    ("fig4", fig04::run),
    ("fig5", fig05::run),
    ("fig8", fig08::run),
    ("fig10", fig10::run),
    ("fig11", fig11::run),
    ("fig12", fig12::run),
    ("fig13", fig13::run),
    ("fig14", fig14::run),
    ("fig15", fig15::run),
    ("fig16", fig16::run),
    ("table1", table1::run),
    ("table2", table2::run),
    ("table3", table3::run),
    ("table4", || table2::run_full(SetupId::One, "table4")),
    ("table5", || table2::run_full(SetupId::Two, "table5")),
    ("table6", || table2::run_full(SetupId::Three, "table6")),
];

/// The [`ALL`] entry of exhibit `id`, if there is one.
pub fn find(id: &str) -> Option<&'static Entry> {
    ALL.iter().find(|(i, _)| *i == id)
}
