(** Memory-access classes: space, kind and pattern.  The [Nt_write] kind
    models x86 non-temporal stores (paper §4.1). *)

type space = Dram | Nvm
type kind = Read | Write | Nt_write
type pattern = Random | Sequential

val space_name : space -> string
val kind_name : kind -> string
val pattern_name : pattern -> string
