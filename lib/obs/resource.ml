let with_ name f =
  if Sink.enabled () then begin
    Sink.record (Event.Span_begin name);
    (* [Gc.minor_words] counts the minor heap's current fill, and
       [Gc.counters] the blocks allocated straight into the major heap;
       [Gc.quick_stat] adds the first only at the next minor collection
       and the second only at the next major slice. *)
    let minor_before = Gc.minor_words ()
    and _, promoted_before, major_before = Gc.counters ()
    and before = Gc.quick_stat () in
    let finish () =
      let minor_after = Gc.minor_words ()
      and _, promoted_after, major_after = Gc.counters ()
      and after = Gc.quick_stat () in
      Sink.record
        (Event.Gc_delta
           {
             span = name;
             minor_words = minor_after -. minor_before;
             major_words = major_after -. major_before;
             promoted_words = promoted_after -. promoted_before;
             heap_words = after.Gc.heap_words - before.Gc.heap_words;
             compactions = after.Gc.compactions - before.Gc.compactions;
           });
      Sink.record (Event.Span_end name)
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end
  else f ()
