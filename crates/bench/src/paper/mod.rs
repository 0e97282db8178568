//! One module per table or figure of the paper's evaluation (§VI), plus the
//! extensions its future-work section names. Each exposes
//! `run(&Options)`, printing a paper-versus-measured report to stdout.

pub mod ext_5level;
pub mod ext_combinations;
pub mod ext_shadow;
pub mod fig01b;
pub mod fig01c;
pub mod fig07;
pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod table1;
pub mod table5;
pub mod table6;
pub mod table7;
