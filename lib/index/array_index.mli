(** The array index of [AHK85]: a single sorted array of tuple pointers.

    Minimum possible storage (the paper's storage-factor baseline of 1.0)
    and a competitive binary search, but every insert or delete moves half
    the array on average, so it is only suitable as a read-only or
    build-then-scan structure — the role it plays inside the Sort Merge
    join (§3.3.2). *)

include Index_intf.S
