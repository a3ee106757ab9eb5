(** Memory-access classes.

    Every cost the simulator charges is classified by where the access goes
    (device space), whether it reads or writes, and its pattern; the size
    is passed alongside to {!Memory.access}.
    The [Nt_write] kind models x86 non-temporal stores (MOVNTDQ): they
    bypass the cache hierarchy and stream at a higher effective bandwidth on
    sequential data (paper §4.1). *)

type space = Dram | Nvm

type kind = Read | Write | Nt_write

type pattern = Random | Sequential

let space_name = function Dram -> "dram" | Nvm -> "nvm"

let kind_name = function
  | Read -> "read"
  | Write -> "write"
  | Nt_write -> "nt-write"

let pattern_name = function Random -> "random" | Sequential -> "sequential"
